package core

import (
	"bookmarkgc/internal/metrics"
	"bookmarkgc/internal/objmodel"
	"bookmarkgc/internal/trace"
)

// failSafe preserves completeness (§3.5): when the heap is exhausted and
// bookmarks may be keeping garbage alive, BC discards every bookmark and
// performs an ordinary full-heap collection that touches evicted pages —
// the worst case for BC, and the common case for every other collector.
// The page faults this takes are charged to the pause like any other.
func (c *BC) failSafe() {
	c.auditResidency()
	c.enterGC()
	defer c.leaveGC()
	defer c.Pause(metrics.PauseFull).End()
	c.Stats().FailSafe++
	c.invalidateBooks()
	c.E.Trace.Begin(trace.PhaseFailSafe)
	defer c.E.Trace.End(trace.PhaseFailSafe)

	// Discard every bookmark and incoming count. Clearing a bookmark on
	// an evicted page touches it — that is the point of the fail-safe.
	// The books are zeroed first so the reloads triggered below do not
	// try to rebalance counters.
	c.dropRecords()
	c.processed.ClearAll()
	// Every region, not only those with incoming counts: a page leaving
	// bookmarks its own objects conservatively without one.
	c.forEachRegion(true, func(r region) {
		c.resetIncoming(r)
		c.objectsOf(r, func(o objmodel.Ref) {
			if objmodel.Bookmarked(c.E.Space, o) {
				objmodel.ClearBookmark(c.E.Space, o)
			}
		})
	})

	// An ordinary full-heap mark-sweep: BC's one trace with no page
	// filter, so it follows every reference and sweeps every page. With
	// the books invalid there are no bookmark roots, and the handler only
	// notes evictions, so it injects no mark work. Workers read the heap's
	// backing words raw (eviction preserves page content), and the
	// canonical touch replay is what pays the reload faults, which update
	// the bitmaps through the handler.
	c.markSweep(c.nursery, nil)
	c.resetNursery()
	c.resizeNursery()
	c.maybeRevalidate()
	c.CollectionDone()
}
