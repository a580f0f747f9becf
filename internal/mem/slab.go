package mem

import (
	"runtime"
	"sync"
)

// FreeList is a mutex-guarded stack of retired host buffers shared by
// every run in the process: page bodies here, worklists and root
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

// owner shares a Space's body table so that a Space dropped without
// Release still returns its bodies. The finalizer sits here, not on the
// Space: a Space and its FaultToucher usually point at each other (a
// vmm.Proc holds its Space), and the Go collector never frees a cycle
// that carries a finalizer. owner points at nothing but the table.
type owner struct {
	bodies []*[WordsPage]uint64
}

// newOwner returns an owner of table whose bodies go back to the pool
// when it becomes unreachable.
func newOwner(table []*[WordsPage]uint64) *owner {
	o := &owner{bodies: table}
	runtime.SetFinalizer(o, func(o *owner) { putBodies(o.bodies) })
	return o
}
