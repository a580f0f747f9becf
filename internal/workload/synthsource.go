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

// NewSynthSource synthesizes the trace for p into memory. It writes the
// trace into the largest scratch buffer a finished synthesis left, then
// keeps it in the retired trace buffer that fits it most tightly, so a
// warm process, synthesizing the same traces again, allocates for
// neither.
func NewSynthSource(p SynthParams) (*SynthSource, error) {
	scratch, _ := freeScratch.GetLargest(func(b []byte) int { return cap(b) })
	buf := bytes.NewBuffer(scratch)
	err := Synthesize(buf, p)
	defer func() { freeScratch.Put(buf.Bytes()[:0]) }()
	if err != nil {
		return nil, err
	}
	data, ok := freeTraces.GetFit(buf.Len(), func(b []byte) int { return cap(b) })
	if !ok {
		data = make([]byte, 0, buf.Len())
	}
	data = append(data, buf.Bytes()...)
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	defer rd.release()
	return &SynthSource{data: data, meta: rd.Meta()}, nil
}

// Release recycles the trace buffer for the next NewSynthSource. Call
// it only when no workload of s runs again and s is not used again.
func (s *SynthSource) Release() {
	freeTraces.Put(s.data[:0])
	s.data = nil
}

// freeTraces holds the trace buffers of released SynthSources, and
// freeScratch the buffers syntheses are written into.
var freeTraces, freeScratch mem.FreeList[[]byte]

// Meta returns the synthesized trace's self-description.
func (s *SynthSource) Meta() Meta { return s.meta }

// NewWorkload implements mutator.Source. The seed is ignored: the trace
// was fixed by SynthParams.Seed at construction, whose meta block the
// reader need not decode again.
func (s *SynthSource) NewWorkload(c gc.Collector, types mutator.Types, seed int64) (mutator.Workload, error) {
	rd, err := openReader(bytes.NewReader(s.data), &s.meta)
	if err != nil {
		return nil, err
	}
	return NewReplayer(rd, c, types), nil
}
