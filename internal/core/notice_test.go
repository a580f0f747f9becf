package core

import (
	"testing"

	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/trace"
)

// noticeBench builds a BC the size of a bc-pressure heap (an address
// space of ~50 bitmap words) with a populated mature space and nursery.
func noticeBench(tb testing.TB) *BC {
	_, c, node, _, _ := newBC(tb, 512, 2, Config{})
	buildList(c, node, 12000, 1)
	c.Collect(true)
	for i := 0; i < 2000; i++ {
		c.Alloc(node, 0)
	}
	return c
}

// missNotice returns the notice that dominates bc-pressure (135k per
// pass): the victim must stay and nothing is discardable, so the handler
// vetoes and searches the whole address space for an empty page in vain.
func missNotice(tb testing.TB) (c *BC, notice func()) {
	c = noticeBench(tb)
	for c.giveDiscardables(0) > 0 { // spend the reserve and the nursery tail
	}
	c.discardCredit = 0
	victim := c.nursery.Base().Page()
	if !c.mustKeep(victim) {
		tb.Fatal("the first nursery page should be one BC keeps")
	}
	h := c.E.Proc.Handler()
	return c, func() { h.EvictionScheduled(victim) }
}

// hitNotice returns the notice the reserve exists for: the victim is
// occupied, but a word of empty resident pages is found, discarded
// whole, and the victim vetoed (§3.4.3). arm replenishes the reserve.
func hitNotice(tb testing.TB) (c *BC, arm, notice func()) {
	c = noticeBench(tb)
	var victim mem.PageID
	for p := c.E.Layout.MatureBase.Page(); victim == 0; p++ {
		if c.resident.Test(int(p)) && !c.mustKeep(p) && !c.pageDiscardable(p) {
			victim = p // an occupied mature data page
		}
	}
	h := c.E.Proc.Handler()
	return c, c.resizeNursery, func() { h.EvictionScheduled(victim) }
}

func BenchmarkEvictionNoticeMiss(b *testing.B) {
	c, notice := missNotice(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		notice()
	}
	b.StopTimer()
	if got := c.E.Counters.Get(trace.CNoticesMustKeepVeto); got != uint64(b.N) || c.discardCredit != 0 {
		b.Fatalf("%d of %d notices ended in a must-keep veto, discard credit %d", got, b.N, c.discardCredit)
	}
}

func BenchmarkEvictionNoticeHit(b *testing.B) {
	c, arm, notice := hitNotice(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		arm()
		b.StartTimer()
		notice()
	}
	b.StopTimer()
	if got := c.E.Counters.Get(trace.CNoticesPaidInEmpties); got != uint64(b.N) {
		b.Fatalf("%d of %d notices were paid in empties", got, b.N)
	}
	if batch := c.E.Counters.Histogram(trace.HDiscardBatch); batch.Mean() < 8 {
		b.Fatalf("mean discard batch %.1f pages: a hit is meant to take a word's worth", batch.Mean())
	}
}

// TestEvictionNoticeDoesNotAllocate: the handler's miss and hit paths
// are host-only bookkeeping on the hottest path bc-pressure has, and
// must stay off the Go heap.
func TestEvictionNoticeDoesNotAllocate(t *testing.T) {
	_, miss := missNotice(t)
	if n := testing.AllocsPerRun(200, miss); n != 0 {
		t.Errorf("miss: %v allocs per notice, want 0", n)
	}
	c, arm, hit := hitNotice(t)
	if n := testing.AllocsPerRun(200, func() { arm(); hit() }); n != 0 {
		t.Errorf("hit: %v allocs per notice, want 0", n)
	}
	if got := c.E.Counters.Get(trace.CNoticesPaidInEmpties); got != 201 {
		t.Errorf("%d of 201 notices were paid in empties", got)
	}
}

// bookmarkNotice returns the notice the bookmarking protocol exists for:
// the victim is an occupied mature page and nothing is discardable, so
// the handler scans it, bookmarks its targets and surrenders it (§3.4).
// arm touches the page back, which reloads it and releases its record.
func bookmarkNotice(tb testing.TB) (c *BC, arm, notice func()) {
	c, _ = missNotice(tb)
	var victim mem.PageID
	for p := c.E.Layout.MatureBase.Page(); victim == 0; p++ {
		if c.resident.Test(int(p)) && !c.mustKeep(p) && !c.pageDiscardable(p) {
			victim = p
		}
	}
	h := c.E.Proc.Handler()
	return c, func() { c.E.Proc.Touch(victim, false) }, func() { h.EvictionScheduled(victim) }
}

func BenchmarkEvictionNoticeBookmark(b *testing.B) {
	c, arm, notice := bookmarkNotice(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		notice()
		b.StopTimer()
		arm()
		b.StartTimer()
	}
	b.StopTimer()
	if got := c.E.Counters.Get(trace.CNoticesBookmarked); got != uint64(b.N) || c.Stats().Bookmarked == 0 {
		b.Fatalf("%d of %d notices bookmarked a page, %d objects bookmarked", got, b.N, c.Stats().Bookmarked)
	}
	if got := c.E.Counters.Get(trace.CPagesReloaded); got != uint64(b.N) {
		b.Fatalf("%d of %d surrendered pages reloaded", got, b.N)
	}
}
