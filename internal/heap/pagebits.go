package heap

import "bookmarkgc/internal/mem"

// pageBits is a bitmap over one region's pages, stored in the alignment
// of a bitmap indexed by absolute page number: bit i stands for page
// origin+i, and origin is the region's first page rounded down to a
// multiple of 64. Its words are therefore words of the absolute bitmap,
// and a space can publish "which of my pages are empty" 64 pages at a
// time (EmptyWord) from the one bitmap it already maintains — BC's
// eviction handler intersects those words with its residency bit array
// (§3.4.3). The bits below the region's first page are never set, and
// the bitmap is only as long as the region.
type pageBits struct {
	mem.Bitmap
	origin int // absolute page number of bit 0, a multiple of 64
}

// newPageBits creates an all-clear bitmap over the pages of [base, end)
// of s, which lends its words.
func newPageBits(s *mem.Space, base, end mem.Addr) pageBits {
	origin := int(base.Page()) &^ 63
	return pageBits{s.NewBitmap(int(end.Page()) - origin), origin}
}

// bit returns the bitmap index of absolute page p.
func (b pageBits) bit(p mem.PageID) int { return int(p) - b.origin }

// page returns the absolute page bitmap index i stands for.
func (b pageBits) page(i int) mem.PageID { return mem.PageID(b.origin + i) }

// word returns the bits of absolute pages [64*wi, 64*wi+64): zero for
// words the region does not reach.
func (b pageBits) word(wi int) uint64 {
	i := wi - b.origin>>6
	if uint(i) >= uint(b.Words()) {
		return 0
	}
	return b.Word(i)
}

// setPages sets the bits of the n pages starting at first.
func (b pageBits) setPages(first mem.PageID, n int) {
	for i := b.bit(first); n > 0; i, n = i+1, n-1 {
		b.Set(i)
	}
}

// clearPages clears the bits of the n pages starting at first.
func (b pageBits) clearPages(first mem.PageID, n int) {
	for i := b.bit(first); n > 0; i, n = i+1, n-1 {
		b.Clear(i)
	}
}
