package collectors

import (
	"bookmarkgc/internal/gc"
	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/objmodel"
)

// MarkSweep is the whole-heap, non-moving collector: segregated-fit
// superpage allocation plus a large object space. Marking writes mark
// state into object headers and sweeping reads every allocated block, so
// under memory pressure it touches evicted pages freely — the paper drops
// it from the pressure graphs because runs "can take hours" (§5.3.1).
type MarkSweep struct {
	gc.Base
	gc.Mature
}

var _ gc.Collector = (*MarkSweep)(nil)

// NewMarkSweep creates a MarkSweep collector on env.
func NewMarkSweep(env *gc.Env) *MarkSweep {
	c, ok := freeMarkSweeps.Get()
	if !ok {
		c = new(MarkSweep)
	}
	*c = MarkSweep{}
	env.Hold(c)
	c.Init(env, c)
	c.Mature = gc.NewMature(&c.Base)
	c.Ladder = gc.Ladder{
		Place: func(t *objmodel.Type, arrayLen, _ int, _ bool) objmodel.Ref {
			return c.AllocMature(t, arrayLen, c.Budget(), 0)
		},
		// The shared trace with an empty young space, so nothing is
		// ever promoted.
		Full: func() { c.FullCollect(&gc.Nursery{}, nil) },
	}
	return c
}

// freeMarkSweeps holds collectors of finished runs.
var freeMarkSweeps mem.FreeList[*MarkSweep]

// Release hands c to a later run's collector. Call it once the run has
// ended.
func (c *MarkSweep) Release() { freeMarkSweeps.Put(c) }

// Name implements gc.Collector.
func (c *MarkSweep) Name() string { return "MarkSweep" }

// UsedPages implements gc.Collector.
func (c *MarkSweep) UsedPages() int { return c.MatureUsedPages() }

// WriteRef implements gc.Collector (no barrier needed).
func (c *MarkSweep) WriteRef(o objmodel.Ref, i int, v objmodel.Ref) { c.WriteRefRaw(o, i, v) }
