package mem

import (
	"runtime"
	"testing"
	"time"
)

// issuedSlabs returns the number of slabs ever taken from a chunk.
func issuedSlabs() int {
	fresh.Lock()
	defer fresh.Unlock()
	return fresh.issued
}

// outstandingSlabs returns the number of issued slabs not on the free
// list: those some Space, released or not, still holds.
func outstandingSlabs() int {
	freeSlabs.mu.Lock()
	defer freeSlabs.mu.Unlock()
	return issuedSlabs() - len(freeSlabs.items)
}

// reclaimDropped runs the Go collector twice, then waits until the
// finalizers of dropped arenas have brought the outstanding slabs down
// to at most want.
func reclaimDropped(t *testing.T, want int) {
	t.Helper()
	runtime.GC()
	runtime.GC()
	for deadline := time.Now().Add(10 * time.Second); outstandingSlabs() > want; {
		if time.Now().After(deadline) {
			t.Fatalf("%d slabs still outstanding after the collector ran, want at most %d", outstandingSlabs(), want)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// TestDroppedSpaceReturnsSlabs: a Space dropped without Release hands its
// slabs back to the free list once the Go collector finds it unreachable,
// so code that never calls Release — tests, benchmarks — does not map a
// new slab for every Space it builds.
func TestDroppedSpaceReturnsSlabs(t *testing.T) {
	const spaces, pages, batch = 200, slabPages, 20
	reclaimDropped(t, outstandingSlabs())
	held, issued := outstandingSlabs(), issuedSlabs()
	for i := 0; i < spaces; i++ {
		s := testSpace((pages + 1) * PageSize)
		for p := PageID(1); p <= pages; p++ {
			s.WriteWord(PageAddr(p), uint64(i)<<16|uint64(p))
		}
		if i%batch == batch-1 {
			reclaimDropped(t, held)
		}
	}
	// Each Space holds one slab, so at most one batch of them is ever
	// outstanding.
	if grown := issuedSlabs() - issued; grown > batch {
		t.Fatalf("%d Spaces of one slab each took %d new slabs, want at most %d", spaces, grown, batch)
	}
}

// TestSlabBacking: outside race builds, on unix, page bodies live off the
// Go heap, so materializing 32 MB of pages barely moves HeapAlloc. Race
// builds keep slabs on the heap, where the detector sees the mark
// engine's atomic accesses to them.
func TestSlabBacking(t *testing.T) {
	const pages = 32 << 20 / PageSize
	slabBytes := int64(len(slab{}) * WordSize)
	// Hold every free slab aside so the Space maps fresh ones.
	reclaimDropped(t, outstandingSlabs())
	freeSlabs.mu.Lock()
	free := freeSlabs.items
	freeSlabs.items = nil
	freeSlabs.mu.Unlock()
	defer freeSlabs.Put(free...)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	issued := issuedSlabs()
	s := testSpace((pages + 1) * PageSize)
	for p := PageID(1); p <= pages; p++ {
		s.WriteWord(PageAddr(p), uint64(p))
	}
	runtime.ReadMemStats(&after)
	fresh := issuedSlabs() - issued
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	s.Release()
	if fresh == 0 {
		t.Fatal("materializing 32 MB of pages took no fresh slab")
	}
	if wantOffHeap {
		if grown >= 4<<20 {
			t.Fatalf("materializing 32 MB of pages (%d fresh slabs) grew HeapAlloc by %d bytes, want < 4 MB", fresh, grown)
		}
	} else if want := int64(fresh)*slabBytes - 1<<20; grown < want {
		t.Fatalf("materializing %d fresh slabs grew HeapAlloc by %d bytes, want at least %d: slabs are not on the Go heap", fresh, grown, want)
	}
}
