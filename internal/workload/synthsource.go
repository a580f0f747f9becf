package workload

import (
	"bytes"

	"bookmarkgc/internal/gc"
	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/mutator"
)

// SynthSource is a mutator.Source over a synthesized trace held in
// memory: the trace is generated once at construction and every
// NewWorkload call replays it from a fresh reader. Fleet tenants use it
// to run synthesized programs without touching the filesystem, and —
// like FileSource — many tenants can replay one SynthSource
// concurrently, each with an independent cursor.
type SynthSource struct {
	data []byte
	meta Meta
}

// NewSynthSource synthesizes the trace for p into memory, in a buffer a
// released SynthSource left if there is one.
func NewSynthSource(p SynthParams) (*SynthSource, error) {
	b, _ := freeTraces.Get()
	buf := bytes.NewBuffer(b)
	if err := Synthesize(buf, p); err != nil {
		return nil, err
	}
	rd, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, err
	}
	defer rd.release()
	return &SynthSource{data: buf.Bytes(), meta: rd.Meta()}, nil
}

// Release recycles the trace buffer for the next NewSynthSource. Call
// it only when no workload of s runs again and s is not used again.
func (s *SynthSource) Release() {
	freeTraces.Put(s.data[:0])
	s.data = nil
}

// freeTraces holds the trace buffers of released SynthSources.
var freeTraces mem.FreeList[[]byte]

// Meta returns the synthesized trace's self-description.
func (s *SynthSource) Meta() Meta { return s.meta }

// WorkloadName implements mutator.Source.
func (s *SynthSource) WorkloadName() string { return s.meta.Name }

// NewWorkload implements mutator.Source. The seed is ignored: the trace
// was fixed by SynthParams.Seed at construction.
func (s *SynthSource) NewWorkload(c gc.Collector, types mutator.Types, seed int64) (mutator.Workload, error) {
	rd, err := NewReader(bytes.NewReader(s.data))
	if err != nil {
		return nil, err
	}
	return NewReplayer(rd, c, types), nil
}
