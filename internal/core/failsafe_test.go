package core

import (
	"testing"

	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/objmodel"
)

// establishBookmarks drives a BC into the bookmarked-and-evicted state:
// live data promoted to the mature space, physical memory squeezed, and
// allocation churn until pages have evicted with bookmarks set.
func establishBookmarks(t *testing.T) (*BC, *objmodel.Type, int) {
	t.Helper()
	v, c, node, _, _ := newBC(t, 48, 24, Config{})
	head := buildList(c, node, 120000, 23) // ~5.8 MB live
	c.Collect(true)
	pressurize(v, 200)
	for i := 0; i < 150000; i++ {
		c.Alloc(node, 0)
	}
	if c.Stats().PagesEvicted == 0 || c.Stats().Bookmarked == 0 {
		t.Fatal("setup failed to evict and bookmark pages")
	}
	return c, node, head
}

// countBookmarks tallies every bookmark artifact the fail-safe must
// discard: bookmark bits, per-superpage incoming counters, LOS incoming
// counts, processed-page bits, and page-target records.
func countBookmarks(c *BC) (bits, incoming, records int) {
	count := func(o objmodel.Ref) {
		if c.pageOK(o.Page()) && objmodel.Bookmarked(c.E.Space, o) {
			bits++
		}
	}
	c.SS.ForEachSuper(func(idx int, _ objmodel.SizeClass, _ objmodel.Kind) {
		incoming += c.SS.Incoming(idx)
		c.SS.ForEachObjectIn(idx, count)
	})
	c.LOS.ForEachObject(count)
	for _, n := range c.losIncoming {
		incoming += n
	}
	records = len(c.pageTargets) + len(c.deferredTargets) + c.processed.Count()
	return
}

// TestFailSafeClearsAllBookmarks drives BC into the completeness
// fail-safe (§3.5) while evicted pages hold bookmarks, then checks the
// collection discarded every bookmark artifact and left the books
// balanced.
func TestFailSafeClearsAllBookmarks(t *testing.T) {
	c, _, head := establishBookmarks(t)
	if _, inc, rec := countBookmarks(c); inc == 0 && rec == 0 {
		t.Fatal("setup left no bookmark state to discard")
	}

	c.failSafe()

	if c.Stats().FailSafe != 1 {
		t.Fatalf("FailSafe = %d, want 1", c.Stats().FailSafe)
	}
	bits, inc, rec := countBookmarks(c)
	if bits != 0 || inc != 0 || rec != 0 {
		t.Fatalf("bookmark state survived fail-safe: bits=%d incoming=%d records=%d", bits, inc, rec)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("invariants after fail-safe: %v", err)
	}
	// The heap the fail-safe traced must still be the mutator's heap.
	checkList(t, c, head, 120000, 23)
}

// TestFailSafeClearsLargeObjectBookmarks: evicting a large object's page
// bookmarks the object conservatively without giving it an incoming
// count. The fail-safe must clear that bookmark too. It used to clear only
// the large objects with incoming counts, and then no reload cleared the
// bit, so the object survived every later collection unreachable.
func TestFailSafeClearsLargeObjectBookmarks(t *testing.T) {
	_, c, _, refArr, _ := newBC(t, 512, 16, Config{})
	slot := c.Roots().Add(c.Alloc(refArr, 2*mem.PageSize/mem.WordSize))
	c.Collect(true)
	big := c.Roots().Get(slot)
	if !c.LOS.Contains(big) {
		t.Fatal("setup: the array is not a large object")
	}
	c.processAndEvict(big.Page())
	if !objmodel.PeekBookmarked(c.E.Space, big) {
		t.Fatal("setup: evicting the page did not bookmark the object")
	}
	c.Roots().Release(slot)

	c.failSafe()
	c.Collect(true)
	c.Collect(true)
	if n := c.LOS.Objects(); n != 0 {
		t.Fatalf("%d large objects survive, bookmarked=%v: want the unreachable one swept", n, objmodel.PeekBookmarked(c.E.Space, big))
	}
}

// TestFailSafeHeapStillUsable checks BC keeps collecting normally after
// a fail-safe: the books were voided, so the next cycles must run in
// resize-only fashion until revalidation, without touching freed state.
func TestFailSafeHeapStillUsable(t *testing.T) {
	c, node, head := establishBookmarks(t)
	c.failSafe()
	for i := 0; i < 50000; i++ {
		c.Alloc(node, 0)
	}
	c.Collect(true)
	checkList(t, c, head, 120000, 23)
}
