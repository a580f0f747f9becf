package collectors

import (
	"bookmarkgc/internal/gc"
	"bookmarkgc/internal/heap"
	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/metrics"
	"bookmarkgc/internal/objmodel"
	"bookmarkgc/internal/trace"
)

// SemiSpace is the classic two-space copying collector: bump allocation
// into to-space, whole-heap Cheney copy on exhaustion. Half the heap is
// a copy reserve, and dead from-space pages linger in memory until the
// VM evicts them — both liabilities the paper discusses (§5.3.2).
// Large objects go to a non-moving LOS collected at each GC.
//
// SemiSpace has no mark phase: its Cheney copy IS the trace, and every
// "visit" both allocates in to-space and rewrites the edge, so it does
// not use the mark engine (gc.Marker, DESIGN.md §11), which only marks
// in place. Copying passes charge every access as it happens.
type SemiSpace struct {
	gc.Base
	from, to *heap.BumpSpace
	los      *heap.LOS
}

var _ gc.Collector = (*SemiSpace)(nil)

// NewSemiSpace creates a SemiSpace collector on env.
func NewSemiSpace(env *gc.Env) *SemiSpace {
	half := uint64(env.HeapPages) / 2 * mem.PageSize
	c := &SemiSpace{
		from: gc.NewBump(env, env.Layout.Bump0Base, env.Layout.Bump0End),
		to:   gc.NewBump(env, env.Layout.Bump1Base, env.Layout.Bump1End),
		los:  gc.NewLOS(env),
	}
	c.Init(env, c)
	c.from.SetBudget(half)
	c.to.SetBudget(half)
	c.Ladder = gc.Ladder{Place: c.place, Full: c.flip}
	return c
}

// Name implements gc.Collector.
func (c *SemiSpace) Name() string { return "SemiSpace" }

// UsedPages implements gc.Collector.
func (c *SemiSpace) UsedPages() int { return c.to.UsedPages() + c.los.UsedPages() }

// EmptyWord implements gc.Collector.
func (c *SemiSpace) EmptyWord(wi int) uint64 {
	return c.from.EmptyWord(wi) | c.to.EmptyWord(wi) | c.los.EmptyWord(wi)
}

// heapBudget is the policy-effective page budget; with no policy it is
// exactly the configured heap. The floor charges live data twice (the
// copy reserve) plus a minimal allocation headroom.
func (c *SemiSpace) heapBudget() int {
	return c.E.HeapBudget(2*(c.to.UsedPages()+c.los.UsedPages()) + 2*gc.MinNurseryPages)
}

// place puts an object in to-space, whose budget it sets on every
// attempt to the semispace's share net of LOS usage. An object no size
// class holds goes to the LOS instead, which shares the non-reserve half.
func (c *SemiSpace) place(t *objmodel.Type, arrayLen, total int, small bool) objmodel.Ref {
	budget := c.heapBudget()
	if !small {
		if c.los.UsedPages()+int(mem.RoundUpPage(uint64(total))/mem.PageSize) > budget/4 {
			return mem.Nil
		}
		return c.los.Alloc(t, arrayLen)
	}
	c.to.SetBudget(uint64(budget/2-c.los.UsedPages()) * mem.PageSize)
	return c.to.Alloc(t, arrayLen)
}

// WriteRef implements gc.Collector (no barrier).
func (c *SemiSpace) WriteRef(o objmodel.Ref, i int, v objmodel.Ref) { c.WriteRefRaw(o, i, v) }

// flip is SemiSpace's collection: flip the semispaces and copy. The
// new to-space is empty, since every flip ends by resetting the space it
// copied out of, which gives that space's host bodies back at once.
func (c *SemiSpace) flip() {
	defer c.Pause(metrics.PauseFull)()
	c.from, c.to = c.to, c.from
	c.to.SetBudget(uint64(c.heapBudget()/2-c.los.UsedPages()) * mem.PageSize)
	epoch := c.NextEpoch()

	work := c.E.GetWorkList()
	defer c.E.PutWorkList(work)
	// forward copies o into to-space if it lives in from-space, returning
	// its new address; LOS objects are marked in place.
	forward := func(o objmodel.Ref) objmodel.Ref {
		switch {
		case c.los.Contains(o):
			gc.MarkStep(c.E, work, o, epoch)
		case c.from.Contains(o):
			return c.CopyTo(c.to, o, work)
		}
		return o
	}
	c.E.Trace.Begin(trace.PhaseRootScan)
	c.Roots().ForEach(func(slot *mem.Addr) {
		*slot = forward(*slot)
	})
	c.E.Trace.End(trace.PhaseRootScan)
	c.E.Trace.Begin(trace.PhaseCheneyForward)
	gc.Drain(c.E, work, func(slot mem.Addr, tgt objmodel.Ref) {
		c.E.Space.WriteAddr(slot, forward(tgt))
	})
	c.E.Trace.End(trace.PhaseCheneyForward)
	c.E.Trace.Begin(trace.PhaseSweep)
	c.los.Sweep(epoch, nil)
	c.E.Trace.End(trace.PhaseSweep)
	c.from.Reset()
	c.CollectionDone()
}
