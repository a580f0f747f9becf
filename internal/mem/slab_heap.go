//go:build !unix || race

package mem

// mapSlabs allocates one zeroed slab on the Go heap. Race builds keep
// slabs there because the race detector ignores memory it did not
// allocate: concurrent runner jobs hand slabs to each other through one
// shared free list, and off the heap a body still written by the job
// that released it would race unseen. Platforms without mmap keep slabs
// there too.
func mapSlabs() []slab { return make([]slab, 1) }
