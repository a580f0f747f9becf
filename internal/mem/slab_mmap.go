//go:build unix && !race

package mem

import (
	"fmt"
	"syscall"
	"unsafe"
)

// chunkSlabs is the number of slabs one anonymous mapping holds (4 MB):
// enough to keep mmap calls and kernel mappings few. Pages of a chunk the
// simulation never writes are never backed by host memory.
const chunkSlabs = 16

// mapSlabs maps a fresh chunk of zero-filled slabs off the Go heap.
// Slabs hold no pointers and stay live until their Space is released, so
// on the Go heap they would only double the host collector's heap target
// (GOGC) and with it the process's resident set. Chunks are never
// unmapped: their slabs recycle through freeSlabs.
func mapSlabs() []slab {
	b, err := syscall.Mmap(-1, 0, chunkSlabs*int(unsafe.Sizeof(slab{})),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		// Out of address space or memory: as fatal as a failed new(slab).
		panic(fmt.Sprintf("mem: mapping %d slabs: %v", chunkSlabs, err))
	}
	return unsafe.Slice((*slab)(unsafe.Pointer(&b[0])), chunkSlabs)
}
