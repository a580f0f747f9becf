//go:build !unix || race

package mem

// chunkBodies is the number of page bodies one heap chunk holds (256 KB).
const chunkBodies = 64

// mapChunk allocates a chunk of zeroed page bodies on the Go heap. Race
// builds keep bodies there because the race detector ignores memory it
// did not allocate: concurrent runner jobs hand bodies to each other
// through one shared pool, and off the heap a body still written by the
// job that freed it would race unseen. Platforms without mmap keep
// bodies there too.
func mapChunk() [][WordsPage]uint64 { return make([][WordsPage]uint64, chunkBodies) }
