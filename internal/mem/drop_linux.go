//go:build linux && !race

package mem

import "syscall"

// dropPages zeroes b, whole pages of an anonymous mapping, by handing
// them back to the kernel: madvise(MADV_DONTNEED) makes a private
// anonymous page read zero-filled and unbacked until it is next written.
func dropPages(b []byte) {
	if syscall.Madvise(b, syscall.MADV_DONTNEED) != nil {
		clear(b)
	}
}
