package collectors

import (
	"bookmarkgc/internal/gc"
	"bookmarkgc/internal/heap"
	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/metrics"
	"bookmarkgc/internal/objmodel"
	"bookmarkgc/internal/trace"
)

// GenCopy is the Appel-style generational collector with a bump-pointer
// nursery and a copying (semispace) mature space. Nursery survivors are
// copied into the active mature semispace; full collections flip the
// mature semispaces. Half the mature space is copy reserve, so GenCopy
// runs out of room sooner than GenMS in small heaps (§5.2). With
// Nursery.FixedPages set it becomes the fixed-nursery variant of
// Figure 5(b).
//
// Both of GenCopy's collections are pure copying passes (nursery
// evacuation and the mature semispace flip), so neither uses the mark
// engine (gc.Marker, DESIGN.md §11), which marks in place: a Cheney
// scan assigns to-space addresses as a side effect of visiting, with
// every access charged as it happens.
type GenCopy struct {
	gc.Base
	Nursery *gc.Nursery
	matFrom *heap.BumpSpace
	matTo   *heap.BumpSpace
	los     *heap.LOS
}

var _ gc.Collector = (*GenCopy)(nil)

// NewGenCopy creates a GenCopy collector on env. The two mature
// semispaces split the second bump region.
func NewGenCopy(env *gc.Env) *GenCopy {
	mid := (env.Layout.Bump1Base + (env.Layout.Bump1End-env.Layout.Bump1Base)/2) &^ (mem.SuperSize - 1)
	c := &GenCopy{
		Nursery: gc.NewNursery(env, 0),
		matFrom: gc.NewBump(env, env.Layout.Bump1Base, mid),
		matTo:   gc.NewBump(env, mid, env.Layout.Bump1End),
		los:     gc.NewLOS(env),
	}
	c.Init(env, c)
	c.Ladder = gc.Ladder{
		Place: c.place,
		Young: func() { c.Nursery.Evacuate(&c.Base, c.promote) },
		Room:  c.nurseryRoom,
		Full:  c.fullGC,
		Live:  func() int { return c.matFrom.UsedPages() + c.los.UsedPages() },
		Grow:  c.resizeNursery,
	}
	c.resizeNursery()
	return c
}

// Name implements gc.Collector.
func (c *GenCopy) Name() string {
	if c.Nursery.FixedPages > 0 {
		return "GenCopyFixed"
	}
	return "GenCopy"
}

// UsedPages implements gc.Collector. The inactive semispace's pages are
// dead weight but not charged: like MMTk, only live spaces count against
// the budget, while the copy reserve is charged by halving availability.
func (c *GenCopy) UsedPages() int {
	return c.matFrom.UsedPages() + c.los.UsedPages() + c.Nursery.UsedPages()
}

// EmptyWord implements gc.Collector.
func (c *GenCopy) EmptyWord(wi int) uint64 {
	return c.Nursery.EmptyWord(wi) | c.matFrom.EmptyWord(wi) | c.matTo.EmptyWord(wi) | c.los.EmptyWord(wi)
}

// heapBudget is the policy-effective page budget; with no policy it is
// exactly the configured heap. The floor covers the mature space twice
// (space plus copy reserve), the LOS, and a minimal nursery with its
// own reserve.
func (c *GenCopy) heapBudget() int {
	return c.E.HeapBudget(2*c.matFrom.UsedPages() + c.los.UsedPages() + 2*gc.MinNurseryPages)
}

// nurseryRoom is the Appel share with a copy reserve: mature usage is
// charged twice (space plus reserve), and the nursery gets half of what
// remains (its own copy reserve).
func (c *GenCopy) nurseryRoom() int {
	return (c.heapBudget() - 2*c.matFrom.UsedPages() - c.los.UsedPages()) / 2
}

func (c *GenCopy) resizeNursery() { c.Nursery.Resize(c.nurseryRoom()) }

// place puts a small object in the nursery and any other in the LOS,
// while the whole footprint stays within the budget.
func (c *GenCopy) place(t *objmodel.Type, arrayLen, total int, small bool) objmodel.Ref {
	if small {
		return c.Nursery.Alloc(t, arrayLen)
	}
	if c.UsedPages()+int(mem.RoundUpPage(uint64(total))/mem.PageSize) > c.heapBudget() {
		return mem.Nil
	}
	return c.los.Alloc(t, arrayLen)
}

// WriteRef implements gc.Collector with the generational write barrier.
func (c *GenCopy) WriteRef(o objmodel.Ref, i int, v objmodel.Ref) {
	c.Nursery.Barrier(o, c.WriteRefRaw(o, i, v), v)
}

// promote copies a nursery object into the active mature semispace.
func (c *GenCopy) promote(o objmodel.Ref, work *gc.WorkList) objmodel.Ref {
	before := c.matFrom.UsedBytes()
	nw := c.CopyTo(c.matFrom, o, work)
	c.E.Counters.Add(trace.CPromotedBytes, c.matFrom.UsedBytes()-before)
	return nw
}

// fullGC flips the mature semispaces, copying all live data (nursery and
// mature) into the new active space; LOS objects are marked and swept.
// The new active space is empty, since every flip ends by resetting the
// space it copied out of, which gives that space's host bodies back.
func (c *GenCopy) fullGC() {
	defer c.Pause(metrics.PauseFull)()
	c.matFrom, c.matTo = c.matTo, c.matFrom
	epoch := c.NextEpoch()

	work := c.E.GetWorkList()
	defer c.E.PutWorkList(work)
	forward := func(o objmodel.Ref) objmodel.Ref {
		switch {
		case c.Nursery.Contains(o):
			return c.promote(o, work)
		case c.matTo.Contains(o):
			return c.CopyTo(c.matFrom, o, work)
		case c.los.Contains(o):
			gc.MarkStep(c.E, work, o, epoch)
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
		if nw := forward(tgt); nw != tgt {
			c.E.Space.WriteAddr(slot, nw)
		}
	})
	c.E.Trace.End(trace.PhaseCheneyForward)
	c.E.Trace.Begin(trace.PhaseSweep)
	c.los.Sweep(epoch, nil)
	c.E.Trace.End(trace.PhaseSweep)
	c.matTo.Reset()
	c.Nursery.Reset()
	c.CollectionDone()
}
