//go:build !unix || race

package mem

// wantOffHeap: race builds and non-unix platforms keep slabs and page
// tables on the Go heap.
const wantOffHeap = false
