package collectors

import (
	"bookmarkgc/internal/gc"
	"bookmarkgc/internal/objmodel"
)

// CopyMS allocates with a bump pointer and performs only whole-heap
// collections that copy the bump space's survivors into a mark-sweep
// mature space (the paper describes it as "a variant of GenMS which
// performs only whole heap garbage collections"). It needs no write
// barrier. Its mark-sweep mature space gives better heap utilization
// than SemiSpace, which delays — but does not prevent — paging (§5.3.2).
type CopyMS struct {
	gc.Base
	gc.Mature
	eden *gc.Nursery
}

var _ gc.Collector = (*CopyMS)(nil)

// NewCopyMS creates a CopyMS collector on env.
func NewCopyMS(env *gc.Env) *CopyMS {
	c := &CopyMS{eden: gc.NewEden(env)}
	c.Init(env, c)
	c.Mature = gc.NewMature(&c.Base)
	// Every promotion happens in a full collection; the fresh copy is
	// stamped once, so Promote itself returns eden survivors marked.
	c.OnPromote = func(dst objmodel.Ref, _ int) { objmodel.SetMark(env.Space, dst, c.Epoch()) }
	c.Ladder = gc.Ladder{
		Place: c.YoungFirst(c.eden),
		// One whole-heap collection copies eden survivors into the
		// mature space and mark-sweeps the rest.
		Full: func() { c.FullCollect(c.eden, c.Promote) },
		Live: c.MatureUsedPages,
		Grow: c.resizeEden,
	}
	c.resizeEden()
	return c
}

// Name implements gc.Collector.
func (c *CopyMS) Name() string { return "CopyMS" }

// UsedPages implements gc.Collector.
func (c *CopyMS) UsedPages() int { return c.MatureUsedPages() + c.eden.UsedPages() }

// EmptyWord implements gc.Collector.
func (c *CopyMS) EmptyWord(wi int) uint64 { return c.Mature.EmptyWord(wi) | c.eden.EmptyWord(wi) }

func (c *CopyMS) resizeEden() { c.eden.Resize(c.NurseryRoom()) }

// WriteRef implements gc.Collector (no barrier: every GC is full-heap).
func (c *CopyMS) WriteRef(o objmodel.Ref, i int, v objmodel.Ref) { c.WriteRefRaw(o, i, v) }
