package mem

import (
	"runtime"
	"sync"
)

// Arena geometry: page bodies are carved from slabs of slabPages bodies
// (256 KB per slab). Slabs are allocated once and never move, so a body
// pointer stays valid until its Space is released.
const (
	slabPages = 64
	slabShift = 6  // log2(slabPages)
	slabMask  = 63 // slabPages - 1
)

type slab [slabPages * WordsPage]uint64

// FreeList is a mutex-guarded stack of retired host buffers shared by
// every run in the process: page slabs here, worklists and root
// registries in internal/gc. Unlike a sync.Pool it is never emptied by
// the Go collector, so what one run retires is there for the next however
// often the host GC runs; in exchange the list keeps its high-water mark
// for the life of the process.
type FreeList[T any] struct {
	mu    sync.Mutex
	items []T
}

// Get pops the most recently retired value; ok is false when the list is
// empty.
func (l *FreeList[T]) Get() (v T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.items)
	if n == 0 {
		return v, false
	}
	v = l.items[n-1]
	var zero T
	l.items[n-1] = zero
	l.items = l.items[:n-1]
	return v, true
}

// Put retires vs for later Gets.
func (l *FreeList[T]) Put(vs ...T) {
	l.mu.Lock()
	l.items = append(l.items, vs...)
	l.mu.Unlock()
}

// freeSlabs holds the zeroed slabs of released Spaces. A sweep churns
// through one Space per run, and before slabs were recycled the discarded
// ones dominated host allocation (and with it host GC frequency).
var freeSlabs FreeList[*slab]

// fresh is the never-issued rest of the last chunk of slabs mapSlabs
// returned; those slabs read zero as mapped. issued counts the slabs ever
// taken from a chunk.
var fresh struct {
	sync.Mutex
	chunk  []slab
	issued int
}

// newSlab returns an all-zero slab: a recycled one if any Space has
// released one, otherwise the next of the current chunk.
func newSlab() *slab {
	if s, ok := freeSlabs.Get(); ok {
		return s
	}
	fresh.Lock()
	defer fresh.Unlock()
	if len(fresh.chunk) == 0 {
		fresh.chunk = mapSlabs()
	}
	s := &fresh.chunk[0]
	fresh.chunk = fresh.chunk[1:]
	fresh.issued++
	return s
}

// arena hands out page bodies by dense uint32 handle with free-list
// recycling. Handle b lives at words [b&slabMask * WordsPage ...] of
// slab b>>slabShift.
type arena struct {
	slabs []*slab
	free  []int32 // recycled handles; bodies are zeroed on reuse
	next  int32   // first never-issued handle
}

// newArena returns an empty arena whose slabs go back to the free list
// when it becomes unreachable, so a Space dropped without Release does
// not strand them.
func newArena() *arena {
	ar := &arena{}
	runtime.SetFinalizer(ar, (*arena).release)
	return ar
}

// alloc returns a body handle and whether it was recycled (and therefore
// holds stale words the caller must zero).
func (ar *arena) alloc() (b int32, recycled bool) {
	if n := len(ar.free); n > 0 {
		b = ar.free[n-1]
		ar.free = ar.free[:n-1]
		return b, true
	}
	b = ar.next
	ar.next++
	if int(b)>>slabShift >= len(ar.slabs) {
		ar.slabs = append(ar.slabs, newSlab())
	}
	return b, false
}

// release zeroes every body the arena issued and hands its slabs to the
// process-wide free list. Bodies from next on were never issued and still
// read zero, so they are not written: the host need not back a slab's
// untouched tail.
func (ar *arena) release() {
	for i, s := range ar.slabs {
		clear(s[:min(int(ar.next)-i*slabPages, slabPages)*WordsPage])
	}
	freeSlabs.Put(ar.slabs...)
	clear(ar.slabs)
	ar.slabs = ar.slabs[:0]
	ar.free = ar.free[:0]
	ar.next = 0
}
