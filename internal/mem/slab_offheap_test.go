//go:build unix && !race

package mem

// wantOffHeap: unix builds without the race detector map slabs off the
// Go heap.
const wantOffHeap = true
