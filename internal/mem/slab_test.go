package mem

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// issuedBodies returns the number of bodies ever taken from a chunk.
func issuedBodies() int {
	fresh.Lock()
	defer fresh.Unlock()
	return fresh.issued
}

// mappedBodies returns the number of bodies in every chunk ever mapped:
// those issued and the never-issued rest of the current chunk.
func mappedBodies() int {
	fresh.Lock()
	defer fresh.Unlock()
	return fresh.issued + len(fresh.chunk)
}

// outstandingBodies returns the number of issued bodies not in the pool:
// those some Space, released or not, still holds.
func outstandingBodies() int {
	freeBodies.mu.Lock()
	defer freeBodies.mu.Unlock()
	return issuedBodies() - len(freeBodies.items)
}

// reclaimDropped runs the Go collector twice, then waits until the
// finalizers of dropped Spaces have brought the outstanding bodies down
// to at most want.
func reclaimDropped(t testing.TB, want int) {
	t.Helper()
	runtime.GC()
	runtime.GC()
	for deadline := time.Now().Add(10 * time.Second); outstandingBodies() > want; {
		if time.Now().After(deadline) {
			t.Fatalf("%d bodies still outstanding after the collector ran, want at most %d", outstandingBodies(), want)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// holdFreeBodies empties the pool for the rest of the test, so every
// body the test materializes comes from a chunk, and puts the held
// bodies back when it ends.
func holdFreeBodies(t *testing.T) {
	reclaimDropped(t, outstandingBodies())
	freeBodies.mu.Lock()
	held := freeBodies.items
	freeBodies.items = nil
	freeBodies.mu.Unlock()
	t.Cleanup(func() { freeBodies.Put(held...) })
}

// TestDroppedSpaceReturnsSlabs: a Space dropped without Release hands its
// bodies back to the pool once the Go collector finds it unreachable, so
// code that never calls Release — tests, benchmarks — does not take new
// bodies for every Space it builds.
func TestDroppedSpaceReturnsSlabs(t *testing.T) {
	const spaces, pages, batch = 200, 64, 20
	reclaimDropped(t, outstandingBodies())
	held, issued := outstandingBodies(), issuedBodies()
	for i := 0; i < spaces; i++ {
		s := testSpace((pages + 1) * PageSize)
		for p := PageID(1); p <= pages; p++ {
			s.WriteWord(PageAddr(p), uint64(i)<<16|uint64(p))
		}
		if i%batch == batch-1 {
			reclaimDropped(t, held)
		}
	}
	// At most one batch of Spaces is ever outstanding.
	if grown := issuedBodies() - issued; grown > batch*pages {
		t.Fatalf("%d Spaces of %d bodies each took %d new bodies, want at most %d", spaces, pages, grown, batch*pages)
	}
}

// TestPoolMapsPeakNotSumOfPeaks: sixteen live Spaces take turns growing
// to their peak while the one before gives its pages back, the way fleet
// tenants trade memory. The process must map no more bodies than the
// most that were live at once, rounded up to one chunk — not the sum of
// each Space's own peak, which per-Space storage would hold.
func TestPoolMapsPeakNotSumOfPeaks(t *testing.T) {
	const tenants, pages, rounds = 16, 256, 3
	holdFreeBodies(t)
	mapped, issued := mappedBodies(), issuedBodies()
	spaces := make([]*Space, tenants)
	for i := range spaces {
		spaces[i] = testSpace((pages + 1) * PageSize)
	}
	live, peak := 0, 0
	for r := 0; r < rounds; r++ {
		for i, s := range spaces {
			prev := spaces[(i+tenants-1)%tenants]
			for p := PageID(1); p <= pages; p++ {
				if s.bodies[p] == nil {
					live++
				}
				s.WriteWord(PageAddr(p), uint64(r)<<32|uint64(i)<<16|uint64(p))
				peak = max(peak, live)
				if prev.bodies[p] != nil {
					live--
					prev.ForgetPages(p, p+1)
				}
			}
			for p := PageID(1); p <= pages; p++ {
				if got, want := s.PeekWord(PageAddr(p)), uint64(r)<<32|uint64(i)<<16|uint64(p); got != want {
					t.Fatalf("round %d, Space %d, page %d reads %#x, want %#x", r, i, p, got, want)
				}
			}
		}
	}
	if got := issuedBodies() - issued; got > peak {
		t.Errorf("took %d new bodies for a peak of %d live", got, peak)
	}
	want := (peak + chunkBodies - 1) / chunkBodies * chunkBodies
	if got := mappedBodies() - mapped; got > want {
		t.Errorf("%d Spaces with %d bodies live at most mapped %d bodies, want at most %d (sum of their peaks: %d)",
			tenants, peak, got, want, tenants*pages)
	}
	for _, s := range spaces {
		s.Release()
	}
}

// TestPoolAcrossGoroutines: Spaces on several goroutines trade bodies
// through the one pool, as the jobs of a parallel sweep do. A body a
// Space takes must read zero, and each Space must read back only what it
// wrote. Under -race, a body still used after its page was discarded
// would race with the goroutine that took it next.
func TestPoolAcrossGoroutines(t *testing.T) {
	const workers, pages, rounds = 4, 32, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := testSpace((pages + 1) * PageSize)
			defer s.Release()
			for r := 0; r < rounds; r++ {
				mark := func(p PageID) uint64 { return uint64(w)<<32 | uint64(r)<<16 | uint64(p) }
				for p := PageID(1); p <= pages; p++ {
					b := s.materialize(p)
					for i, v := range b {
						if v != 0 {
							t.Errorf("worker %d, round %d: page %d materialized dirty: word %d = %#x", w, r, p, i, v)
							return
						}
					}
					b[0], b[WordsPage-1] = mark(p), mark(p)
				}
				for p := PageID(1); p <= pages; p++ {
					last := PageAddr(p) + PageSize - WordSize
					if got, gotLast := s.PeekWord(PageAddr(p)), s.PeekWord(last); got != mark(p) || gotLast != mark(p) {
						t.Errorf("worker %d, round %d: page %d reads %#x and %#x, want %#x", w, r, p, got, gotLast, mark(p))
						return
					}
					s.ForgetPages(p, p+1)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestSlabBacking: outside race builds, on unix, page bodies and page
// tables live off the Go heap, so materializing 32 MB of pages, or
// taking a 16 MB table, barely moves HeapAlloc. Race builds keep both on
// the heap, where the detector sees concurrent runner jobs hand them to
// each other through the shared free lists.
func TestSlabBacking(t *testing.T) {
	const pages = 32 << 20 / PageSize
	holdFreeBodies(t)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	issued := issuedBodies()
	s := testSpace((pages + 1) * PageSize)
	for p := PageID(1); p <= pages; p++ {
		s.WriteWord(PageAddr(p), uint64(p))
	}
	runtime.ReadMemStats(&after)
	fresh := issuedBodies() - issued
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	s.Release()
	if fresh == 0 {
		t.Fatal("materializing 32 MB of pages took no fresh body")
	}
	if wantOffHeap {
		if grown >= 4<<20 {
			t.Fatalf("materializing 32 MB of pages (%d fresh bodies) grew HeapAlloc by %d bytes, want < 4 MB", fresh, grown)
		}
	} else if want := int64(fresh)*PageSize - 1<<20; grown < want {
		t.Fatalf("materializing %d fresh bodies grew HeapAlloc by %d bytes, want at least %d: bodies are not on the Go heap", fresh, grown, want)
	}

	const tableBytes = 16 << 20
	var l FreeList[[]uint64]
	runtime.GC()
	runtime.ReadMemStats(&before)
	tab := TakeTable(&l, tableBytes/WordSize)
	runtime.ReadMemStats(&after)
	grown = int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if wantOffHeap {
		if grown >= 1<<20 {
			t.Fatalf("taking a 16 MB table grew HeapAlloc by %d bytes, want < 1 MB", grown)
		}
	} else if grown < tableBytes {
		t.Fatalf("taking a 16 MB table grew HeapAlloc by %d bytes: tables are not on the Go heap", grown)
	}
	runtime.KeepAlive(tab)
}

// TestReleaseDisarmsTheOwner: Release hands the body table to the next
// Space of its size. The released Space's owner, whose finalizer returns
// the bodies of a dropped Space, must not then return the taker's
// bodies when the Go collector finds the released Space unreachable.
func TestReleaseDisarmsTheOwner(t *testing.T) {
	const pages = 61 // a size no other test uses, so b takes a's table
	size := uint64(pages+1) * PageSize
	a := testSpace(size)
	a.WriteWord(PageAddr(1), 1)
	table := &a.bodies[0]
	a.Release()
	b := testSpace(size)
	if &b.bodies[0] != table {
		t.Fatal("the next Space did not take the released body table")
	}
	for p := PageID(1); p <= pages; p++ {
		b.WriteWord(PageAddr(p), uint64(p))
	}
	a = nil
	runtime.GC()
	runtime.GC()
	// Finalizers run in turn on one goroutine: once one queued after a's
	// owner became unreachable has run, a's would have run too.
	done := make(chan struct{})
	sentinel := new([32]byte) // too big for the tiny allocator, which may never finalize
	runtime.SetFinalizer(sentinel, func(*[32]byte) { close(done) })
	sentinel = nil
	runtime.GC()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the sentinel's finalizer never ran")
	}
	for p := PageID(1); p <= pages; p++ {
		if got := b.PeekWord(PageAddr(p)); got != uint64(p) {
			t.Fatalf("page %d reads %d after the released Space was collected, want %d", p, got, p)
		}
	}
	b.Release()
}

// TestFreeListTakesByCapacity: GetFit takes the least capacity that
// fits, GetLargest the greatest, each the most recently retired of
// equals, and neither takes from an empty list.
func TestFreeListTakesByCapacity(t *testing.T) {
	var l FreeList[[]int]
	size := func(s []int) int { return cap(s) }
	if _, ok := l.GetLargest(size); ok {
		t.Fatal("GetLargest took from an empty list")
	}
	a, b, c, d := make([]int, 0, 8), make([]int, 0, 64), make([]int, 0, 16), make([]int, 0, 64)
	l.Put(a, b, c, d)
	if s, ok := l.GetFit(10, size); !ok || cap(s) != 16 {
		t.Fatalf("GetFit(10) took cap %d (ok %v), want 16", cap(s), ok)
	}
	if s, ok := l.GetLargest(size); !ok || &s[:1][0] != &d[:1][0] {
		t.Fatalf("GetLargest took cap %d (ok %v), want the later cap-64 slice", cap(s), ok)
	}
	if _, ok := l.GetFit(65, size); ok {
		t.Fatal("GetFit(65) took a slice too small")
	}
	if s, ok := l.GetLargest(size); !ok || cap(s) != 64 {
		t.Fatalf("GetLargest took cap %d (ok %v), want 64", cap(s), ok)
	}
	if s, ok := l.GetLargest(size); !ok || cap(s) != 8 {
		t.Fatalf("GetLargest took cap %d (ok %v), want 8", cap(s), ok)
	}
}

// TestClassedRegrowthAllocatesNothing: lists grown through a Classed and
// given back serve the same growth again without allocating, in
// whatever order the growers take them.
func TestClassedRegrowthAllocatesNothing(t *testing.T) {
	var c Classed[int]
	needs := []int{1, 7, 300, 5, 64, 65, 2}
	round := func(reverse bool) {
		lists := make([][]int, len(needs))
		for k := range needs {
			i := k
			if reverse {
				i = len(needs) - 1 - k
			}
			for v := 0; v < needs[i]; v++ {
				lists[i] = c.Append(lists[i], v)
			}
		}
		for i, l := range lists {
			if len(l) != needs[i] || (len(l) > 0 && l[len(l)-1] != needs[i]-1) {
				t.Fatalf("list %d holds %v", i, l)
			}
			c.Put(l)
		}
	}
	round(false)
	if n := testing.AllocsPerRun(10, func() { round(true) }); n > 1 { // the round's own table of lists
		t.Errorf("a warm round allocated %v times", n)
	}
}

// drainTables empties l for the rest of the test, so that what the
// test gives back is all a GetFit can take, and puts the held tables
// back when it ends.
func drainTables[T any](t *testing.T, l *FreeList[[]T]) {
	var held [][]T
	for {
		tab, ok := l.Get()
		if !ok {
			break
		}
		held = append(held, tab)
	}
	t.Cleanup(func() { l.Put(held...) })
}

// checkTableZero fails unless every entry of tab up to its capacity is
// the zero value.
func checkTableZero[T comparable](t *testing.T, what string, tab []T) {
	t.Helper()
	var zero T
	for i, v := range tab[:cap(tab)] {
		if v != zero {
			t.Fatalf("%s: entry %d of %d (capacity %d) reads %v", what, i, len(tab), cap(tab), v)
		}
	}
}

// tableComesBackZero takes a table of n entries from l, dirties every
// entry up to its capacity with dirty, gives it back, and takes it again
// at half of n and at its whole capacity — at least n, more where the
// table was rounded up to whole pages. Each time GetFit must hand back
// the same table, every entry up to its capacity zero.
func tableComesBackZero[T comparable](t *testing.T, l *FreeList[[]T], n uint64, dirty T) {
	t.Helper()
	tab := TakeTable(l, n)
	checkTableZero(t, "a new table", tab)
	for _, again := range []uint64{n / 2, uint64(cap(tab))} {
		full := tab[:cap(tab)]
		for i := range full {
			full[i] = dirty
		}
		l.Put(tab)
		got := TakeTable(l, again)
		if len(got) != int(again) || &got[:1][0] != &full[0] {
			t.Fatalf("n %d: taking %d entries did not take the table given back", n, again)
		}
		checkTableZero(t, fmt.Sprintf("n %d, taken again at %d", n, again), got)
		tab = got
	}
	l.Put(tab)
}

// TestTablesComeBackZero: a table given back dirty, whatever its size,
// reads zero up to its capacity when it is taken again at a smaller or a
// larger size. Mapped tables are zeroed by dropping their pages, which
// this checks as much as the small tables' clear.
func TestTablesComeBackZero(t *testing.T) {
	// Under a page, one page and a few pages, and 70 000 pages' worth.
	sizes := []uint64{100, PageSize, 3*PageSize + 5, 70000}
	var words FreeList[[]uint64]
	var flags FreeList[[]uint8]
	var bodies FreeList[[]*[WordsPage]uint64]
	body := newBody()
	defer freeBodies.Put(body)
	for _, n := range sizes {
		tableComesBackZero(t, &words, n, ^uint64(0))
		tableComesBackZero(t, &flags, n, PFEvicted|PFReferenced)
		tableComesBackZero(t, &bodies, n, body)
	}
}

// TestReleasedSpaceTablesComeBackZero: a Space built after one of the
// same size was released — dirty tables, lent ones included — takes the
// released Space's tables and sees none of their contents.
func TestReleasedSpaceTablesComeBackZero(t *testing.T) {
	drainTables(t, &freeBodyTables)
	drainTables(t, &freeFlagTables)
	drainTables(t, &freeWordTables)
	drainTables(t, &freeInt32Tables)
	const pages = 20000
	a := testSpace(pages * PageSize)
	for p := PageID(1); p < pages; p += 7 {
		a.WriteWord(PageAddr(p), uint64(p))
	}
	flags, bm, ints := a.PageFlags(), a.NewBitmap(pages), a.LendInt32s(pages)
	flags = flags[:cap(flags)]
	for p := range flags {
		flags[p] = PFResident | PFReferenced
	}
	for i := 0; i < pages; i++ {
		bm.Set(i)
		ints[i] = -1
	}
	bodyTable := &a.bodies[0]
	a.Release()
	b := testSpace(pages * PageSize)
	if &b.bodies[0] != bodyTable {
		t.Fatal("the next Space did not take the released body table")
	}
	checkTableZero(t, "body table", b.bodies)
	got := b.PageFlags()
	got[0] = 0 // the reserved null page's flags
	checkTableZero(t, "flag table", got)
	checkTableZero(t, "lent bitmap words", b.NewBitmap(pages).w)
	checkTableZero(t, "lent int32s", b.LendInt32s(pages))
	b.Release()
}
