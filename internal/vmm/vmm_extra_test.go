package vmm

import (
	"testing"
	"time"

	"bookmarkgc/internal/mem"
)

// faultRecurser re-touches the faulting page from inside the reload
// handler, as BC's bookmark-clearing scan does. Before the fault-service
// page lock this caused unbounded reload/evict recursion.
type faultRecurser struct {
	proc   *Proc
	depth  int
	maxSee int
}

func (h *faultRecurser) EvictionScheduled(mem.PageID) {}
func (h *faultRecurser) PageReloaded(p mem.PageID, wasEvicted bool) {
	if !wasEvicted {
		return
	}
	h.depth++
	if h.depth > h.maxSee {
		h.maxSee = h.depth
	}
	// Scan the page (several touches) while memory is desperately low.
	for i := 0; i < 8; i++ {
		h.proc.Space().ReadWord(mem.PageAddr(p) + mem.Addr(i*mem.WordSize+mem.WordSize))
	}
	h.depth--
}

func TestFaultServiceHoldsPageLock(t *testing.T) {
	_, v := testVMM(t, 80) // barely above the 64-frame minimum
	p := v.NewProc("a", 4096*mem.PageSize)
	h := &faultRecurser{proc: p}
	p.Register(h)
	// Far more pages than frames: constant eviction.
	for round := 0; round < 3; round++ {
		for i := 1; i <= 300; i++ {
			p.Space().WriteWord(mem.PageAddr(mem.PageID(i))+8, uint64(i))
		}
	}
	if h.maxSee > 1 {
		t.Fatalf("reload handler re-entered %d deep: page lock broken", h.maxSee)
	}
	// Data must have survived all round trips.
	for i := 1; i <= 300; i++ {
		if got := p.Space().ReadWord(mem.PageAddr(mem.PageID(i)) + 8); got != uint64(i) {
			t.Fatalf("page %d lost data: %d", i, got)
		}
	}
}

func TestQueueCompactionBoundsGrowth(t *testing.T) {
	_, v := testVMM(t, 256)
	p := v.NewProc("a", 4096*mem.PageSize)
	// Heavy discard/retouch churn creates stale queue entries.
	for round := 0; round < 200; round++ {
		for i := 1; i <= 64; i++ {
			p.Space().WriteWord(mem.PageAddr(mem.PageID(i)), 1)
		}
		for i := 1; i <= 64; i++ {
			p.Discard(mem.PageID(i))
		}
	}
	if got := v.active.size() + v.inactive.size(); got > 4*(v.used+64)+64 {
		t.Fatalf("queues grew to %d entries for %d resident pages", got, v.used)
	}
}

func TestReclaimBackoffWhenStuck(t *testing.T) {
	_, v := testVMM(t, 80)
	p := v.NewProc("a", 4096*mem.PageSize)
	// Lock every page we touch: nothing is evictable.
	for i := 1; i <= 70; i++ {
		p.Lock(mem.PageID(i))
	}
	before := v.Stats().Reclaims
	// Touching more pages cannot find victims; the VMM must back off
	// rather than scanning on every single fault.
	for i := 100; i < 200; i++ {
		p.Space().WriteWord(mem.PageAddr(mem.PageID(i)), 1)
	}
	reclaims := v.Stats().Reclaims - before
	if reclaims > 20 {
		t.Fatalf("%d reclaim passes for 100 hopeless faults; backoff broken", reclaims)
	}
	if v.FreeFrames() >= 0 {
		// Overcommit is expected here; the invariant is just that we
		// didn't deadlock or panic.
		t.Log("note: machine not overcommitted after all")
	}
}

func TestProtectOnNonResidentIsNoop(t *testing.T) {
	_, v := testVMM(t, 256)
	p := v.NewProc("a", 64*mem.PageSize)
	p.Protect(5) // fresh page
	if p.Protected(5) {
		t.Fatal("protected a non-resident page")
	}
	p.Space().WriteWord(mem.PageAddr(5), 1)
	if p.Protected(5) {
		t.Fatal("protection appeared out of nowhere")
	}
}

func TestRelinquishIgnoresNonResident(t *testing.T) {
	_, v := testVMM(t, 256)
	p := v.NewProc("a", 64*mem.PageSize)
	p.Space().WriteWord(mem.PageAddr(3), 1)
	p.Lock(4)
	p.Relinquish([]mem.PageID{3, 4, 5}) // 4 locked, 5 fresh
	if p.State(5) != Fresh {
		t.Fatal("fresh page changed state")
	}
	if p.State(4) != Resident {
		t.Fatal("locked page affected")
	}
	_ = v
}

func TestUnpinRestoresCapacity(t *testing.T) {
	_, v := testVMM(t, 256)
	v.Pin(100)
	if v.PinnedFrames() != 100 {
		t.Fatal("pin lost")
	}
	v.Unpin(40)
	if v.PinnedFrames() != 60 {
		t.Fatal("partial unpin wrong")
	}
	v.Unpin(1000)
	if v.PinnedFrames() != 0 {
		t.Fatal("unpin floor broken")
	}
	v.Pin(10000)
	if v.PinnedFrames() != 256 {
		t.Fatal("pin ceiling broken")
	}
}

func TestClockPendingOrder(t *testing.T) {
	c := NewClock()
	c.Schedule(3*time.Second, func() {})
	c.Schedule(time.Second, func() {})
	got := c.Pending()
	if len(got) != 2 || got[0] != time.Second || got[1] != 3*time.Second {
		t.Fatalf("Pending = %v", got)
	}
}

func TestEvictIsNotifiedExactlyOncePerEviction(t *testing.T) {
	_, v := testVMM(t, 128)
	p := v.NewProc("a", 4096*mem.PageSize)
	h := &recHandler{proc: p}
	p.Register(h)
	fill(p, 1, 400)
	// Count evictions of pages we saw scheduled; double notification for
	// one eviction would inflate scheduled beyond evictions+vetoes.
	if v.Stats().Evictions == 0 {
		t.Fatal("no evictions")
	}
	if uint64(len(h.scheduled)) < v.Stats().Evictions {
		t.Fatalf("fewer notifications (%d) than evictions (%d)",
			len(h.scheduled), v.Stats().Evictions)
	}
}

func TestStateStringAndProcString(t *testing.T) {
	if Fresh.String() != "fresh" || Resident.String() != "resident" || Evicted.String() != "evicted" {
		t.Fatal("PageState strings wrong")
	}
	_, v := testVMM(t, 128)
	p := v.NewProc("zork", 64*mem.PageSize)
	if s := p.String(); s == "" || p.Name() != "zork" {
		t.Fatal("diagnostics broken")
	}
}

// TestNewProcRejectsFourBillionPages: queue entries hold page numbers in
// 32 bits, so a space of 2^32 pages is refused before anything is built.
func TestNewProcRejectsFourBillionPages(t *testing.T) {
	v := New(NewClock(), 64*mem.PageSize, DefaultCosts())
	for _, bytes := range []uint64{1 << 32 * mem.PageSize, 1<<64 - 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewProc of %d bytes did not panic", bytes)
				}
			}()
			v.NewProc("huge", bytes)
		}()
	}
}

// TestReleasedMachineTablesComeBackZeroed: a machine built after one was
// released runs on its page table, flag table and queue arrays, and sees
// none of the old state.
func TestReleasedMachineTablesComeBackZeroed(t *testing.T) {
	v, _, _ := reclaimMachine(t) // every frame in use, queues full
	old := &v.procs[0].pages[0]
	v.Release()
	u := New(NewClock(), reclaimFrames*mem.PageSize, DefaultCosts())
	q := u.NewProc("fresh", (1+reclaimHot+reclaimCold)*mem.PageSize)
	if &q.pages[0] != old || cap(u.active.refs) == 0 {
		t.Fatal("the new machine took no recycled table")
	}
	for pg := range q.pages {
		if q.pages[pg] != (pageInfo{}) || pg > 0 && q.flags[pg] != 0 {
			t.Fatalf("page %d starts as %+v, flags %#x", pg, q.pages[pg], q.flags[pg])
		}
	}
	if u.active.size() != 0 || u.inactive.size() != 0 {
		t.Fatalf("queues start with %d and %d entries", u.active.size(), u.inactive.size())
	}
	if err := u.CheckAccounting(); err != nil {
		t.Fatal(err)
	}
	if w := q.Space().ReadWord(mem.PageAddr(1)); w != 0 {
		t.Fatalf("a fresh page reads %d", w)
	}
	u.Release()
}
