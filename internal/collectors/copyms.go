package collectors

import (
	"bookmarkgc/internal/gc"
	"bookmarkgc/internal/heappolicy"
	"bookmarkgc/internal/mem"
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
	c.resizeEden()
	return c
}

// Name implements gc.Collector.
func (c *CopyMS) Name() string { return "CopyMS" }

// UsedPages implements gc.Collector.
func (c *CopyMS) UsedPages() int { return c.MatureUsedPages() + c.eden.UsedPages() }

func (c *CopyMS) resizeEden() { c.eden.Resize(c.Budget() - c.MatureUsedPages()) }

// Alloc implements gc.Collector.
func (c *CopyMS) Alloc(t *objmodel.Type, arrayLen int) objmodel.Ref {
	total := t.TotalBytes(arrayLen)
	_, small := c.E.Classes.ForSize(total)
	for attempt := 0; ; attempt++ {
		var o objmodel.Ref
		if small {
			o = c.eden.Alloc(t, arrayLen)
		} else {
			o = c.AllocMature(t, arrayLen, c.Budget(), c.eden.UsedPages())
		}
		if o != mem.Nil {
			c.CountAlloc(t, arrayLen)
			if c.PolicyTick() {
				c.resizeEden()
			}
			return o
		}
		if attempt == 2 {
			panic(c.OOM(c.E.HeapPages))
		}
		c.Collect(true)
	}
}

// WriteRef implements gc.Collector (no barrier: every GC is full-heap).
func (c *CopyMS) WriteRef(o objmodel.Ref, i int, v objmodel.Ref) { c.WriteRefRaw(o, i, v) }

// Collect implements gc.Collector: a whole-heap collection that copies
// eden survivors into the mature space and mark-sweeps the rest.
func (c *CopyMS) Collect(bool) {
	c.FullCollect(c.eden, c.Promote)
	if c.MatureUsedPages() > c.E.HeapPages {
		panic(c.OOM(c.E.HeapPages))
	}
	// Outside the pause so the policy sees the collection's own cost.
	gc.ObserveHeapPolicy(c, heappolicy.EvGCEnd, -1)
	c.resizeEden()
}
