//go:build unix && !linux && !race

package mem

// dropPages zeroes b, whole pages of an anonymous mapping. Outside Linux
// MADV_DONTNEED is only a hint that may keep a page's contents, so the
// pages are written.
func dropPages(b []byte) { clear(b) }
