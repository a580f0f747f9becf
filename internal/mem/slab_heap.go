//go:build !unix || race

package mem

// mapSlabs allocates one zeroed slab on the Go heap. Race builds keep
// slabs there because the race detector ignores memory it did not
// allocate, which would silently stop it checking the mark engine's
// atomic slab accesses; platforms without mmap keep them there too.
func mapSlabs() []slab { return make([]slab, 1) }
