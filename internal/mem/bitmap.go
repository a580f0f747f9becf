package mem

import "math/bits"

// Bitmap is a dense bit set used for page-residency tracking, block
// allocation maps, and card tables. BC's aggressive empty-page discard
// (§3.4.3 of the paper) operates on whole 64-bit words of the residency
// bitmap, which is why word-granularity operations are exposed.
type Bitmap struct {
	w []uint64
	n int // number of valid bits
}

// NewBitmap creates a bitmap of n bits, all clear.
func NewBitmap(n int) *Bitmap {
	return &Bitmap{w: make([]uint64, (n+63)/64), n: n}
}

// Len returns the number of bits in the bitmap.
func (b *Bitmap) Len() int { return b.n }

// Set sets bit i.
func (b *Bitmap) Set(i int) { b.w[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (b *Bitmap) Clear(i int) { b.w[i>>6] &^= 1 << (uint(i) & 63) }

// Test reports whether bit i is set.
func (b *Bitmap) Test(i int) bool { return b.w[i>>6]&(1<<(uint(i)&63)) != 0 }

// ClearAll clears every bit.
func (b *Bitmap) ClearAll() {
	for i := range b.w {
		b.w[i] = 0
	}
}

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.w {
		c += bits.OnesCount64(w)
	}
	return c
}

// NextSet returns the index of the first set bit >= i, or -1.
func (b *Bitmap) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	for i < b.n {
		wi := i >> 6
		w := b.w[wi] >> (uint(i) & 63)
		if w != 0 {
			r := i + bits.TrailingZeros64(w)
			if r >= b.n {
				return -1
			}
			return r
		}
		i = (wi + 1) << 6
	}
	return -1
}

// WordIndex returns the index of the 64-bit word holding bit i.
func (b *Bitmap) WordIndex(i int) int { return i >> 6 }

// Words returns the number of 64-bit words backing the bitmap.
func (b *Bitmap) Words() int { return len(b.w) }

// Word returns 64-bit word wi: bit k of the result is bit wi*64+k of the
// bitmap. Set algebra over bitmaps that share an index space — BC's
// "resident, not evicted, and empty" (§3.4.3) — is word algebra over
// these.
func (b *Bitmap) Word(wi int) uint64 { return b.w[wi] }

// RangeWord returns word wi of the bit set {from, ..., to-1}: what
// Bitmap.Word(wi) would return with exactly those bits set. It lets a
// contiguous run of an index space be intersected with bitmaps over the
// same space without materializing it.
func RangeWord(wi, from, to int) uint64 {
	lo := wi << 6
	if from < lo {
		from = lo
	}
	if to > lo+64 {
		to = lo + 64
	}
	if from >= to {
		return 0
	}
	return ^uint64(0) >> uint(64-(to-from)) << uint(from-lo)
}
