package collectors

import (
	"bookmarkgc/internal/gc"
	"bookmarkgc/internal/heappolicy"
	"bookmarkgc/internal/metrics"
	"bookmarkgc/internal/objmodel"
)

// GenMS is the Appel-style generational collector with a bump-pointer
// nursery and a mark-sweep mature space — the paper's consistently
// highest-throughput baseline (§5.2) and the collector BC is closest to.
// Nursery collections copy survivors into the segregated-fit superpage
// space; full collections mark-sweep everything. With
// Nursery.FixedPages set it becomes the fixed-size-nursery variant of
// Figure 5(b).
type GenMS struct {
	gc.Base
	gc.Mature
	Nursery *gc.Nursery
}

var _ gc.Collector = (*GenMS)(nil)

// NewGenMS creates a GenMS collector on env.
func NewGenMS(env *gc.Env) *GenMS {
	c := &GenMS{Nursery: gc.NewNursery(env, 0)} // MMTk-style unbounded write buffer
	c.Init(env, c)
	c.Mature = gc.NewMature(&c.Base)
	c.Ladder = gc.Ladder{
		Place: c.YoungFirst(c.Nursery),
		Rungs: []func(){func() { c.Collect(false) }, func() { c.Collect(true) }},
		Grow:  c.resizeNursery,
	}
	c.resizeNursery()
	return c
}

// Name implements gc.Collector.
func (c *GenMS) Name() string {
	if c.Nursery.FixedPages > 0 {
		return "GenMSFixed"
	}
	return "GenMS"
}

// UsedPages implements gc.Collector.
func (c *GenMS) UsedPages() int { return c.MatureUsedPages() + c.Nursery.UsedPages() }

// resizeNursery applies the Appel policy: the nursery gets all the space
// the mature heap is not using.
func (c *GenMS) resizeNursery() { c.Nursery.Resize(c.Budget() - c.MatureUsedPages()) }

// WriteRef implements gc.Collector with the generational write barrier.
func (c *GenMS) WriteRef(o objmodel.Ref, i int, v objmodel.Ref) {
	c.Nursery.Barrier(o, c.WriteRefRaw(o, i, v), v)
}

// Collect implements gc.Collector.
func (c *GenMS) Collect(full bool) {
	if !full {
		c.nurseryGC()
		// Appel trigger: a nursery too small to be useful means the
		// mature space owns the heap — do the full collection now.
		full = c.Budget()-c.MatureUsedPages() <= gc.MinNurseryPages
	}
	if full {
		c.FullCollect(c.Nursery, c.PromoteMarked)
	}
	if c.MatureUsedPages() > c.E.HeapPages {
		panic(c.OOM(c.E.HeapPages))
	}
	gc.ObserveHeapPolicy(c, heappolicy.EvGCEnd, -1)
	c.resizeNursery()
}

// nurseryGC copies nursery survivors to the mature space.
func (c *GenMS) nurseryGC() {
	defer c.Pause(metrics.PauseNursery)()
	c.Nursery.Evacuate(&c.Base, c.Promote)
}
