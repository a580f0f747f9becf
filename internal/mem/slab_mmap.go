//go:build unix && !race

package mem

import (
	"fmt"
	"syscall"
	"unsafe"
)

// chunkBodies is the number of page bodies one anonymous mapping holds
// (4 MB): enough to keep mmap calls and kernel mappings few. Pages of a
// chunk the simulation never writes are never backed by host memory.
const chunkBodies = 1024

// mapChunk maps a fresh chunk of zero-filled page bodies off the Go heap.
// Bodies hold no pointers and stay in use or in the pool for the life of
// the process, so on the Go heap they would only double the host
// collector's heap target (GOGC) and with it the process's resident set.
// Chunks are never unmapped: their bodies recycle through freeBodies.
func mapChunk() [][WordsPage]uint64 {
	b := mapAnon(chunkBodies * PageSize)
	return unsafe.Slice((*[WordsPage]uint64)(unsafe.Pointer(&b[0])), chunkBodies)
}

// newTable returns a table of n zero entries. One of a page or more is
// mapped off the Go heap, its capacity rounded up to whole pages: a
// table covers every page of a Space, most of which a run never
// touches, and a mapped table's unwritten pages are never backed by
// host memory. A smaller table would cost a whole page once written, so
// it is made on the Go heap. Tables are never unmapped: they recycle
// through their free lists (TakeTable), or through a dropped Space's
// owner.
func newTable[T any](n uint64) []T {
	size := uint64(unsafe.Sizeof(*new(T)))
	if n*size < PageSize {
		return make([]T, n)
	}
	b := mapAnon(int(RoundUpPage(n * size)))
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), uint64(len(b))/size)[:n]
}

// zeroTable zeroes every entry of t, a table newTable made. A mapped
// table drops its pages (dropPages) instead of writing them, so the
// pages its last user wrote stop being backed and the next user backs
// only those it writes.
func zeroTable[T any](t []T) {
	n := uint64(len(t)) * uint64(unsafe.Sizeof(*new(T)))
	if n < PageSize {
		clear(t)
		return
	}
	dropPages(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(t))), RoundUpPage(n)))
}

// mapAnon maps n bytes of zero-filled anonymous memory.
func mapAnon(n int) []byte {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		// Out of address space or memory: as fatal as a failed new().
		panic(fmt.Sprintf("mem: mapping %d bytes: %v", n, err))
	}
	return b
}
