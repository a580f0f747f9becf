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
	params SynthParams
	data   []byte
	meta   Meta
}

// NewSynthSource synthesizes the trace for p into memory. A trace is a
// pure function of its parameters, so a released source of the same
// parameters is handed back whole, and a warm process that synthesizes
// the same traces again allocates nothing for them. Otherwise it writes
// the trace into the largest scratch buffer a finished synthesis left,
// then keeps it in the released source whose buffer fits it most
// tightly.
func NewSynthSource(p SynthParams) (*SynthSource, error) {
	if s, ok := freeSources.GetMatch(func(s *SynthSource) bool { return s.params == p }); ok {
		return s, nil
	}
	scratch, _ := freeScratch.GetLargest(func(b []byte) int { return cap(b) })
	buf := bytes.NewBuffer(scratch)
	meta, err := synthesize(buf, p)
	defer func() { freeScratch.Put(buf.Bytes()[:0]) }()
	if err != nil {
		return nil, err
	}
	s, ok := freeSources.GetFit(buf.Len(), func(s *SynthSource) int { return cap(s.data) })
	if !ok {
		s = &SynthSource{data: make([]byte, 0, buf.Len())}
	}
	*s = SynthSource{params: p, data: append(s.data[:0], buf.Bytes()...), meta: meta}
	return s, nil
}

// Release hands s, trace and all, to a later NewSynthSource. Call it
// only when no workload of s runs again and s is not used again.
func (s *SynthSource) Release() { freeSources.Put(s) }

// freeSources holds released SynthSources, and freeScratch the buffers
// syntheses are written into.
var (
	freeSources mem.FreeList[*SynthSource]
	freeScratch mem.FreeList[[]byte]
)

// Meta returns the synthesized trace's self-description.
func (s *SynthSource) Meta() Meta { return s.meta }

// NewWorkload implements mutator.Source. The seed is ignored: the trace
// was fixed by SynthParams.Seed at construction, whose meta block the
// reader need not decode again.
func (s *SynthSource) NewWorkload(c gc.Collector, types mutator.Types, seed int64) (mutator.Workload, error) {
	rd, err := openBytes(s.data, &s.meta)
	if err != nil {
		return nil, err
	}
	return NewReplayer(rd, c, types), nil
}
