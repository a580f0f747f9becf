package core

import (
	"math/rand"
	"testing"

	"bookmarkgc/internal/gc"
	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/objmodel"
	"bookmarkgc/internal/trace"
	"bookmarkgc/internal/vmm"
)

// noticeCount counts the eviction notices the VMM delivers, upstream of
// BC's handler.
type noticeCount struct {
	vmm.Handler
	n uint64
}

func (h *noticeCount) EvictionScheduled(p mem.PageID) {
	h.n++
	h.Handler.EvictionScheduled(p)
}

// noticeOutcomes sums the eviction-notice outcome counters.
func noticeOutcomes(c *BC) (sum uint64) {
	for _, id := range trace.CountersIn("notices") {
		sum += c.E.Counters.Get(id)
	}
	return sum
}

// newBC builds a BC on a machine with physMB of RAM and a heapMB budget,
// with a counter registry attached. Every collection the BC performs is
// followed by a CheckInvariants audit, so any regression test that
// corrupts the books fails at the collection that corrupted them, not at
// its final assertion; and when the test ends, the notice-outcome
// counters must sum to the notices the VMM delivered — every notice of
// every test ends in exactly one outcome.
func newBC(t testing.TB, physMB, heapMB int, cfg Config) (*vmm.VMM, *BC, *objmodel.Type, *objmodel.Type, *objmodel.Type) {
	t.Helper()
	clock := vmm.NewClock()
	v := vmm.New(clock, uint64(physMB)<<20, vmm.DefaultCosts())
	env := gc.NewEnv(v, "bc-test", uint64(heapMB)<<20)
	env.Counters = trace.NewCounters()
	node := env.Types.Scalar("node", 4, 0, 1)
	refArr := env.Types.Array("refArr", true)
	dataArr := env.Types.Array("dataArr", false)
	c := New(env, cfg)
	c.OnCollectionEnd(func() {
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("invariants after collection: %v", err)
		}
	})
	delivered := &noticeCount{Handler: env.Proc.Handler()}
	env.Proc.Register(delivered)
	t.Cleanup(func() {
		if sum := noticeOutcomes(c); sum != delivered.n {
			t.Errorf("notice outcome counters sum to %d, %d notices were delivered", sum, delivered.n)
		}
	})
	return v, c, node, refArr, dataArr
}

func TestBCBasicAllocAndCollect(t *testing.T) {
	_, c, node, _, _ := newBC(t, 512, 16, Config{})
	o := c.Alloc(node, 0)
	c.WriteData(o, 2, 5)
	slot := c.Roots().Add(o)
	c.Collect(false)
	c.Collect(true)
	if got := c.ReadData(c.Roots().Get(slot), 2); got != 5 {
		t.Fatalf("data = %d", got)
	}
	if c.Stats().Nursery != 1 || c.Stats().Full != 1 {
		t.Fatalf("stats: %+v", *c.Stats())
	}
}

// buildList allocates an n-node linked list with data checksums; returns
// the head's root slot.
func buildList(c gc.Collector, node *objmodel.Type, n int, seed uint64) int {
	head := c.Roots().Add(mem.Nil)
	for i := 0; i < n; i++ {
		o := c.Alloc(node, 0)
		c.WriteData(o, 2, seed+uint64(i))
		if prev := c.Roots().Get(head); prev != mem.Nil {
			c.WriteRef(o, 0, prev)
		}
		c.Roots().Set(head, o)
	}
	return head
}

// checkList verifies the list built by buildList.
func checkList(t *testing.T, c gc.Collector, head int, n int, seed uint64) {
	t.Helper()
	o := c.Roots().Get(head)
	for i := n - 1; i >= 0; i-- {
		if o == mem.Nil {
			t.Fatalf("list truncated at %d", i)
		}
		if got := c.ReadData(o, 2); got != seed+uint64(i) {
			t.Fatalf("node %d: data %d, want %d", i, got, seed+uint64(i))
		}
		o = c.ReadRef(o, 0)
	}
	if o != mem.Nil {
		t.Fatal("list longer than built")
	}
}

func TestBCChurnNoPressure(t *testing.T) {
	_, c, node, _, dataArr := newBC(t, 512, 8, Config{})
	head := buildList(c, node, 2000, 7)
	for i := 0; i < 300000; i++ {
		c.Alloc(node, 0)
		if i%200 == 0 {
			c.Alloc(dataArr, 500)
		}
	}
	checkList(t, c, head, 2000, 7)
	if c.Stats().Nursery == 0 {
		t.Fatal("no nursery collections")
	}
	// Without memory pressure there must be no bookmarking at all.
	if c.Stats().PagesEvicted != 0 || c.Stats().Bookmarked != 0 {
		t.Fatalf("bookmarking happened without pressure: %+v", *c.Stats())
	}
}

func TestBCCompactionReclaimsFragmentation(t *testing.T) {
	_, c, node, _, dataArr := newBC(t, 512, 6, Config{})
	// Build a fragmented mature space: allocate long-lived arrays, force
	// promotion, then drop most of them.
	var slots []int
	for i := 0; i < 1500; i++ {
		slots = append(slots, c.Roots().Add(c.Alloc(dataArr, 120))) // ~1KB each
	}
	c.Collect(true) // promote all
	// Free all but every 16th: superpages become sparsely occupied.
	for i, s := range slots {
		if i%16 != 0 {
			c.Roots().Release(s)
		}
	}
	before := c.MatureUsedPages()
	// Now demand enough space that mark-sweep alone cannot satisfy: the
	// allocation ladder must reach compaction rather than OOM.
	head := buildList(c, node, 100, 3)
	for i := 0; i < 1200; i++ {
		c.Roots().Add(c.Alloc(dataArr, 120))
	}
	checkList(t, c, head, 100, 3)
	if c.Stats().Compactions == 0 {
		t.Logf("note: no compaction needed (mature %d -> %d pages)", before, c.MatureUsedPages())
	}
	// Survivor data must be intact regardless.
	for i, s := range slots {
		if i%16 == 0 {
			o := c.Roots().Get(s)
			if got := c.ReadData(o, 0); got != 0 {
				t.Fatalf("array %d corrupted", i)
			}
		}
	}
}

// pressurize pins frames (as the paper's signalmem does) until the rest
// of the system — the heap included — can keep at most keepPages frames
// resident. Pinning past the free pool forces reclaim to evict heap
// pages.
func pressurize(v *vmm.VMM, keepPages int) {
	want := v.FreeFrames() + v.UsedFrames() - keepPages
	if want > 0 {
		v.Pin(want)
	}
}

func TestBCSurvivesMemoryPressure(t *testing.T) {
	v, c, node, _, _ := newBC(t, 64, 16, Config{})
	head := buildList(c, node, 30000, 11) // ~1.4 MB live
	c.Collect(true)                       // promote
	// Squeeze physical memory well below the heap's footprint.
	pressurize(v, 256)
	// Keep allocating; BC must discard/bookmark its way through.
	for i := 0; i < 200000; i++ {
		c.Alloc(node, 0)
	}
	checkList(t, c, head, 30000, 11)
	if v.Stats().Evictions == 0 {
		t.Fatal("no evictions despite pressure")
	}
}

func TestBCBookmarksUnderSeverePressure(t *testing.T) {
	v, c, node, _, _ := newBC(t, 48, 24, Config{})
	// Live data big enough that after pinning, part of the heap MUST be
	// evicted (discarding empties won't be enough).
	head := buildList(c, node, 120000, 13) // ~5.8 MB live
	c.Collect(true)
	pressurize(v, 200) // ~0.8 MB free: live data cannot all stay
	// Touch the head region and allocate to force paging decisions.
	for i := 0; i < 150000; i++ {
		c.Alloc(node, 0)
	}
	if c.Stats().PagesEvicted == 0 {
		t.Fatal("severe pressure but BC never bookmarked a page")
	}
	if c.Stats().Bookmarked == 0 {
		t.Fatal("pages evicted but no objects bookmarked")
	}
	// The outcome counters show the veto churn behind ROADMAP "Charge
	// what the paper's system pays" (b), "Make the veto stick": many
	// notices vetoed, or paid off in empty pages, for each page actually
	// scanned and surrendered.
	surrendered := c.E.Counters.Get(trace.CNoticesBookmarked) + c.E.Counters.Get(trace.CNoticesRedirected)
	if got := c.E.Counters.Get(trace.CPagesProcessed); got != surrendered || surrendered == 0 {
		t.Fatalf("%d pages processed, %d notices counted as bookmarked or redirected", got, surrendered)
	}
	if notices := noticeOutcomes(c); notices < 10*surrendered {
		t.Fatalf("%d notices for %d pages surrendered: expected more than 10 notices per eviction", notices, surrendered)
	}
	// Full GCs during pressure must not have touched evicted pages:
	// major faults during full pauses should be zero (BC's core claim).
	for _, p := range c.Stats().Timeline.Pauses {
		if p.MajorFaults > 0 && c.Stats().FailSafe == 0 {
			t.Fatalf("GC pause took %d major faults without fail-safe", p.MajorFaults)
		}
	}
	// The full list must still be intact (bookmarked objects kept alive,
	// evicted data faulted back correctly).
	checkList(t, c, head, 120000, 13)
}

func TestBCReloadClearsBookmarks(t *testing.T) {
	v, c, node, _, _ := newBC(t, 48, 24, Config{})
	head := buildList(c, node, 120000, 17)
	c.Collect(true)
	pressurize(v, 200)
	for i := 0; i < 100000; i++ {
		c.Alloc(node, 0)
	}
	if c.Stats().PagesEvicted == 0 {
		t.Skip("no evictions; nothing to reload")
	}
	evicted := c.evictedHeapPg
	// Walking the whole list reloads every evicted page.
	checkList(t, c, head, 120000, 17)
	if c.evictedHeapPg >= evicted && evicted > 0 {
		// Some pages may be re-evicted while walking, but the books must
		// still balance: every processed page record must correspond to a
		// page currently marked processed.
		for p := range c.pageTargets {
			if !c.processed.Test(int(p)) {
				t.Fatalf("page %d has a target record but is not processed", p)
			}
		}
	}
}

func TestBCFailSafePreservesCompleteness(t *testing.T) {
	v, c, node, _, _ := newBC(t, 48, 10, Config{})
	head := buildList(c, node, 60000, 19) // ~2.9 MB live in a 10 MB heap
	c.Collect(true)
	pressurize(v, 150)
	// Churn a second structure repeatedly so bookmarked garbage builds
	// up; the tight heap should eventually force the fail-safe (or at
	// least keep the runtime alive).
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("BC died under pressure: %v", r)
		}
	}()
	for round := 0; round < 8; round++ {
		tmp := buildList(c, node, 30000, uint64(round))
		checkList(t, c, tmp, 30000, uint64(round))
		c.Roots().Release(tmp)
		t.Logf("round %d: stats %+v evicted=%d", round, struct {
			N, F, C, FS, PE uint64
		}{c.Stats().Nursery, c.Stats().Full, c.Stats().Compactions, c.Stats().FailSafe, c.Stats().PagesEvicted}, c.evictedHeapPg)
	}
	checkList(t, c, head, 60000, 19)
}

func TestBCResizeOnlyVariant(t *testing.T) {
	v, c, node, _, _ := newBC(t, 48, 24, Config{ResizeOnly: true})
	head := buildList(c, node, 120000, 23)
	c.Collect(true)
	pressurize(v, 200)
	for i := 0; i < 100000; i++ {
		c.Alloc(node, 0)
	}
	if c.Name() != "BCResizeOnly" {
		t.Fatal("wrong name")
	}
	if c.Stats().Bookmarked != 0 {
		t.Fatal("resize-only variant set bookmarks")
	}
	checkList(t, c, head, 120000, 23)
	if v.Stats().Evictions == 0 {
		t.Fatal("expected evictions under pressure")
	}
}

func TestBCShrinksFootprintUnderPressure(t *testing.T) {
	v, c, node, _, _ := newBC(t, 64, 32, Config{})
	buildListNoCheck := func(n int) {
		for i := 0; i < n; i++ {
			c.Alloc(node, 0)
		}
	}
	buildListNoCheck(100000)
	target0 := c.E.HeapPolicy.Target()
	pressurize(v, 128)
	buildListNoCheck(100000)
	if got := c.E.HeapPolicy.Target(); got >= target0 {
		t.Fatalf("footprint target did not shrink: %d -> %d", target0, got)
	}
	if c.Budget() > c.E.HeapPages {
		t.Fatal("budget exceeds configured heap")
	}
}

func TestBCRegrowAfterTransientPressure(t *testing.T) {
	v, c, node, _, _ := newBC(t, 64, 32, Config{Regrow: true})
	for i := 0; i < 100000; i++ {
		c.Alloc(node, 0)
	}
	pressurize(v, 96)
	for i := 0; i < 100000; i++ {
		c.Alloc(node, 0)
	}
	shrunk := c.E.HeapPolicy.Target()
	if shrunk >= c.E.HeapPages {
		t.Skip("pressure did not shrink the target")
	}
	v.Unpin(v.PinnedFrames()) // pressure gone
	for i := 0; i < 400000; i++ {
		c.Alloc(node, 0)
	}
	if got := c.E.HeapPolicy.Target(); got <= shrunk {
		t.Fatalf("footprint target never regrew: stuck at %d", got)
	}
}

func TestBCRandomChurnUnderPressure(t *testing.T) {
	v, c, node, _, _ := newBC(t, 64, 24, Config{})
	rng := rand.New(rand.NewSource(7))
	const N = 48
	slots := make([]int, N)
	shadow := make([]uint64, N)
	for i := range slots {
		o := c.Alloc(node, 0)
		shadow[i] = rng.Uint64()
		c.WriteData(o, 2, shadow[i])
		slots[i] = c.Roots().Add(o)
	}
	pressurize(v, 512)
	for step := 0; step < 60000; step++ {
		switch rng.Intn(8) {
		case 0, 1, 2:
			c.Alloc(node, 0)
		case 3:
			i := rng.Intn(N)
			o := c.Alloc(node, 0)
			shadow[i] = rng.Uint64()
			c.WriteData(o, 2, shadow[i])
			c.Roots().Set(slots[i], o)
		case 4, 5:
			i, j, k := rng.Intn(N), rng.Intn(N), rng.Intn(2)
			c.WriteRef(c.Roots().Get(slots[i]), k, c.Roots().Get(slots[j]))
		case 6:
			i := rng.Intn(N)
			if got := c.ReadData(c.Roots().Get(slots[i]), 2); got != shadow[i] {
				t.Fatalf("step %d: slot %d = %#x want %#x", step, i, got, shadow[i])
			}
		case 7:
			if step%5000 == 7 {
				c.Collect(true)
			}
		}
	}
	for i := range slots {
		if got := c.ReadData(c.Roots().Get(slots[i]), 2); got != shadow[i] {
			t.Fatalf("final slot %d = %#x want %#x", i, got, shadow[i])
		}
	}
}

func TestBCVictimPolicyPointerFree(t *testing.T) {
	v, c, node, _, dataArr := newBC(t, 48, 24, Config{Victim: VictimPreferPointerFree})
	// Mix pointer-heavy and pointer-free mature data.
	head := buildList(c, node, 60000, 29)
	var arrs []int
	for i := 0; i < 400; i++ {
		arrs = append(arrs, c.Roots().Add(c.Alloc(dataArr, 800)))
	}
	c.Collect(true)
	pressurize(v, 200)
	for i := 0; i < 100000; i++ {
		c.Alloc(node, 0)
	}
	checkList(t, c, head, 60000, 29)
	for _, s := range arrs {
		_ = c.ReadData(c.Roots().Get(s), 0)
	}
	_ = v
}

func TestBCRemsetStaysSmall(t *testing.T) {
	// §3.1: the filtered write buffer should typically occupy one page.
	_, c, node, _, _ := newBC(t, 512, 16, Config{})
	old := c.Roots().Add(c.Alloc(node, 0))
	c.Collect(true) // promote
	for i := 0; i < 100000; i++ {
		y := c.Alloc(node, 0)
		c.WriteRef(c.Roots().Get(old), 0, y)
	}
	if got := c.nursery.Rem.MaxBufferPages(); got > 1 {
		t.Fatalf("write buffer grew to %d pages", got)
	}
	if c.nursery.Rem.Flushes() == 0 {
		t.Fatal("buffer never filtered")
	}
	// The card-table path must still keep old->young edges alive.
	y := c.Alloc(node, 0)
	c.WriteData(y, 2, 31)
	c.WriteRef(c.Roots().Get(old), 0, y)
	c.Collect(false)
	kept := c.ReadRef(c.Roots().Get(old), 0)
	if kept == mem.Nil || c.ReadData(kept, 2) != 31 {
		t.Fatal("old->young edge lost through card filtering")
	}
}
