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
	b, err := syscall.Mmap(-1, 0, chunkBodies*PageSize,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		// Out of address space or memory: as fatal as a failed new().
		panic(fmt.Sprintf("mem: mapping %d page bodies: %v", chunkBodies, err))
	}
	return unsafe.Slice((*[WordsPage]uint64)(unsafe.Pointer(&b[0])), chunkBodies)
}
