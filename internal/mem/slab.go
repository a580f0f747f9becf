package mem

import (
	"math/bits"
	"runtime"
	"sync"
)

// FreeList is a mutex-guarded stack of retired host buffers shared by
// every run in the process: page bodies and the Space's page tables
// here, the VMM's queues and page tables in internal/vmm, worklists,
// root registries and mark engines in internal/gc, and trace buffers in
// internal/workload. Unlike a sync.Pool it is never emptied by the Go
// collector, so what one run retires is there for the next however
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

// GetFit pops the retired value of least size at least n, the most
// recently retired of equals, where size reports a value's capacity, so
// a table sized for a large run is not spent on a small one; ok is
// false when none is that large.
func (l *FreeList[T]) GetFit(n int, size func(T) int) (v T, ok bool) {
	return l.getBest(size, func(c, best int) bool { return c >= n && (best < 0 || c < best) })
}

// GetLargest pops the retired value of greatest size, the most recently
// retired of equals, for a buffer whose need is unknown until it fills;
// ok is false when the list is empty.
func (l *FreeList[T]) GetLargest(size func(T) int) (v T, ok bool) {
	return l.getBest(size, func(c, best int) bool { return c > best })
}

// getBest pops the value whose size is better than that of every value
// retired after it; best is -1 until one qualifies.
func (l *FreeList[T]) getBest(size func(T) int, better func(c, best int) bool) (v T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	best, bestSize := -1, -1
	for i := len(l.items) - 1; i >= 0; i-- {
		if c := size(l.items[i]); better(c, bestSize) {
			best, bestSize = i, c
		}
	}
	if best < 0 {
		return v, false
	}
	last := len(l.items) - 1
	v = l.items[best]
	l.items[best] = l.items[last]
	var zero T
	l.items[last] = zero
	l.items = l.items[:last]
	return v, true
}

// Put retires vs for later Gets.
func (l *FreeList[T]) Put(vs ...T) {
	l.mu.Lock()
	l.items = append(l.items, vs...)
	l.mu.Unlock()
}

// Classed is a process-wide set of free lists of slices, one per
// power-of-two capacity. A slice grown through it moves to a slice of
// the next class it needs (Append, Grow) and gives the old one back, so
// any slice of a list serves as well as another. A warm process, whose
// runs grow their slices as the last pass's did, then takes every slice
// from a list instead of allocating, however its runs share them out.
type Classed[T any] [bits.UintSize]FreeList[[]T]

// take returns an empty slice of capacity at least n: the least power
// of two that holds n.
func (c *Classed[T]) take(n int) []T {
	k := bits.Len(uint(max(n, 1) - 1))
	if s, ok := c[k].Get(); ok {
		return s
	}
	return make([]T, 0, 1<<k)
}

// Put retires s for a later take of its capacity. A slice whose
// capacity is not a power of two is left to the Go collector.
func (c *Classed[T]) Put(s []T) {
	if n := cap(s); n > 0 && n&(n-1) == 0 {
		c[bits.TrailingZeros(uint(n))].Put(s[:0])
	}
}

// Grow returns s with room for n more elements, moved to a slice taken
// from c if it has not.
func (c *Classed[T]) Grow(s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	grown := append(c.take(len(s)+n), s...)
	c.Put(s)
	return grown
}

// Append appends vs to s through Grow.
func (c *Classed[T]) Append(s []T, vs ...T) []T {
	return append(c.Grow(s, len(vs)), vs...)
}

// freeBodies is the process-wide pool of page bodies no Space holds.
// Every Space draws from it and returns to it, so the bodies the process
// ever mapped are the most that all live Spaces held at once, not the sum
// of each Space's own high-water mark. Bodies on it hold whatever their
// last page held; newBody zeroes them on reuse.
var freeBodies FreeList[*[WordsPage]uint64]

// fresh is the never-issued rest of the last chunk mapChunk returned;
// those bodies read zero as mapped and are never written before they are
// issued, so the host need not back a chunk's untouched tail. issued
// counts the bodies ever taken from a chunk.
var fresh struct {
	sync.Mutex
	chunk  [][WordsPage]uint64
	issued int
}

// newBody returns an all-zero page body: a retired one, cleared, if the
// pool has one, otherwise the next of the current chunk.
func newBody() *[WordsPage]uint64 {
	if b, ok := freeBodies.Get(); ok {
		clear(b[:])
		return b
	}
	fresh.Lock()
	defer fresh.Unlock()
	if len(fresh.chunk) == 0 {
		fresh.chunk = mapChunk()
	}
	b := &fresh.chunk[0]
	fresh.chunk = fresh.chunk[1:]
	fresh.issued++
	return b
}

// putBodies retires every non-nil body of table to the pool under one
// lock and clears the table.
func putBodies(table []*[WordsPage]uint64) {
	freeBodies.mu.Lock()
	for i, b := range table {
		if b != nil {
			freeBodies.items = append(freeBodies.items, b)
			table[i] = nil
		}
	}
	freeBodies.mu.Unlock()
}

// Tables a released Space hands to the next one (TakeTable): body
// tables, nil throughout, flag tables, and the bitmap words and int32
// tables it lent.
var (
	freeBodyTables  FreeList[[]*[WordsPage]uint64]
	freeFlagTables  FreeList[[]uint8]
	freeWordTables  FreeList[[]uint64]
	freeInt32Tables FreeList[[]int32]
)

// TakeTable returns a table of n zero entries: the retired table of
// least capacity that fits, cleared, or a new one.
func TakeTable[T any](l *FreeList[[]T], n uint64) []T {
	t, ok := l.GetFit(int(n), func(t []T) int { return cap(t) })
	if !ok {
		return make([]T, n)
	}
	t = t[:n]
	clear(t)
	return t
}

// owner holds what a Space gives back to the pool: it shares the
// Space's body table and holds the records of its swapped-out pages, so
// that a Space dropped without Release still returns its bodies and
// slabs. The finalizer sits here, not on the Space: a Space and its
// FaultToucher usually point at each other (a vmm.Proc holds its
// Space), and the Go collector never frees a cycle that carries a
// finalizer. owner points at nothing but tables and pool bodies.
type owner struct {
	bodies []*[WordsPage]uint64
	swapStore

	// The tables the Space has lent to structures built over it. The
	// lists keep their capacity from Space to Space.
	lentWords  [][]uint64
	lentInt32s [][]int32
}

// freeOwners are the owners released Spaces hand to the next ones. An
// owner's slab lists go back to their own free lists (Classed) at
// release, so any owner serves as well as another.
var freeOwners FreeList[*owner]

// newOwner returns an owner of table whose bodies and records go back
// to the pool when it becomes unreachable.
func newOwner(table []*[WordsPage]uint64) *owner {
	o, ok := freeOwners.Get()
	if !ok {
		o = new(owner)
	}
	o.bodies = table
	runtime.SetFinalizer(o, (*owner).release)
	return o
}

// release gives the owner's bodies, slabs and record table blocks back
// to the pool, and the emptied owner to the next Space.
func (o *owner) release() {
	putBodies(o.bodies)
	o.bodies = nil
	// A dropped Space's lent tables are left to the Go collector: what
	// was built over the Space may still hold them.
	clear(o.lentWords)
	clear(o.lentInt32s)
	o.lentWords, o.lentInt32s = o.lentWords[:0], o.lentInt32s[:0]
	o.swapStore.release()
	freeOwners.Put(o)
}
