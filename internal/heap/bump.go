package heap

import (
	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/objmodel"
	"bookmarkgc/internal/trace"
)

// BumpSpace is a contiguous bump-pointer allocation region: the nursery
// of the generational collectors, and both semispaces of the copying
// collectors. Its effective size can be bounded below the region's
// virtual capacity (Appel-style variable nurseries shrink it as the
// mature space grows; fixed-nursery variants clamp it).
type BumpSpace struct {
	s     *mem.Space
	base  mem.Addr
	end   mem.Addr // hard end of the virtual region
	limit mem.Addr // current soft limit (base + size budget)
	cur   mem.Addr

	emptyAdds uint64 // Resets: the only moves that add pages to EmptyWord

	counters *trace.Counters // optional registry (nil-safe)
}

// NewBumpSpace creates a bump space over [base, end).
func NewBumpSpace(s *mem.Space, base, end mem.Addr) *BumpSpace {
	return &BumpSpace{s: s, base: base, end: end, limit: end, cur: base}
}

// SetCounters attaches a counter registry recording allocation counts.
// nil detaches.
func (b *BumpSpace) SetCounters(c *trace.Counters) { b.counters = c }

// SetBudget bounds the space to n bytes (rounded up to a page); the
// region's virtual capacity is the upper bound.
func (b *BumpSpace) SetBudget(n uint64) {
	limit := b.base + mem.Addr(mem.RoundUpPage(n))
	if limit > b.end {
		limit = b.end
	}
	b.limit = limit
}

// Budget returns the current byte budget.
func (b *BumpSpace) Budget() uint64 { return uint64(b.limit - b.base) }

// Alloc carves an uninitialized object of totalBytes (header included).
// It returns mem.Nil when the space is full; the caller must collect.
// The new object's header is initialized and its payload zeroed, as a
// real allocator must over recycled memory (on the host, a page Reset
// emptied already reads zero).
func (b *BumpSpace) Alloc(t *objmodel.Type, arrayLen int) objmodel.Ref {
	total := mem.Addr(mem.RoundUpWord(uint64(t.TotalBytes(arrayLen))))
	if b.cur+total > b.limit {
		return mem.Nil
	}
	o := b.cur
	b.cur += total
	b.counters.Inc(trace.CBumpAllocs)
	objmodel.ClearStatus(b.s, o)
	objmodel.SetTypeWord(b.s, o, t.ID, arrayLen)
	b.s.ZeroRange(objmodel.Payload(o), uint64(total)-objmodel.HeaderBytes)
	return o
}

// AllocRaw carves totalBytes (word-rounded) without initializing them;
// copying collectors overwrite the block wholesale. Returns mem.Nil when
// the space is full.
func (b *BumpSpace) AllocRaw(totalBytes int) mem.Addr {
	total := mem.Addr(mem.RoundUpWord(uint64(totalBytes)))
	if b.cur+total > b.limit {
		return mem.Nil
	}
	o := b.cur
	b.cur += total
	b.counters.Inc(trace.CBumpAllocs)
	return o
}

// Reset empties the space for reuse (a nursery collection or a semispace
// flip). Pages are deliberately not returned to the VM: as in MMTk, dead
// nursery pages stay mapped and drift down the LRU queues — the behaviour
// the paper identifies as a paging liability (§5.3.2). Only the host
// copies of the emptied pages go back to the pool (mem.ForgetPages); each
// page is written again by Alloc or a copy before anything reads it.
func (b *BumpSpace) Reset() {
	if b.cur > b.base {
		b.s.ForgetPages(b.base.Page(), (b.cur + mem.PageSize - 1).Page())
	}
	b.cur = b.base
	b.emptyAdds++
}

// Contains reports whether a lies in the space's region.
func (b *BumpSpace) Contains(a mem.Addr) bool { return a >= b.base && a < b.end }

// ContainsAllocated reports whether a lies below the allocation frontier.
func (b *BumpSpace) ContainsAllocated(a mem.Addr) bool { return a >= b.base && a < b.cur }

// Base returns the first address of the region.
func (b *BumpSpace) Base() mem.Addr { return b.base }

// Frontier returns the current allocation pointer.
func (b *BumpSpace) Frontier() mem.Addr { return b.cur }

// EmptyWord returns word wi of the region's empty pages as a bitmap
// indexed by absolute page number: the pages of [base, end) that start
// at or past the frontier — beyond the budget too, which is where BC
// keeps its empty-page reserve (§3.4.3). It is arithmetic on the
// frontier, so there is no state for Alloc and Reset to keep in step.
func (b *BumpSpace) EmptyWord(wi int) uint64 {
	return mem.RangeWord(wi, int((b.cur + mem.PageSize - 1).Page()), int((b.end + mem.PageSize - 1).Page()))
}

// EmptyAdds counts the changes that may have added pages to EmptyWord:
// only Reset moves the frontier down. While it stands still, every word
// EmptyWord returns is a subset of what it returned before.
func (b *BumpSpace) EmptyAdds() uint64 { return b.emptyAdds }

// UsedBytes returns bytes allocated since the last Reset.
func (b *BumpSpace) UsedBytes() uint64 { return uint64(b.cur - b.base) }

// UsedPages returns the number of pages at or below the frontier.
func (b *BumpSpace) UsedPages() int {
	return int(mem.RoundUpPage(uint64(b.cur-b.base)) / mem.PageSize)
}

// Pages returns the page IDs of the region up to the frontier.
func (b *BumpSpace) Pages() (first, last mem.PageID) {
	if b.cur == b.base {
		return b.base.Page(), b.base.Page()
	}
	return b.base.Page(), (b.cur - 1).Page()
}

// ForEachObject walks the allocated objects in address order. The walk
// reads each object's header to find the next, touching pages as a real
// linear scan would. types resolves object sizes.
func (b *BumpSpace) ForEachObject(types *objmodel.Table, fn func(o objmodel.Ref)) {
	for a := b.base; a < b.cur; {
		t, n := types.TypeOf(b.s, a)
		fn(a)
		a += mem.Addr(mem.RoundUpWord(uint64(t.TotalBytes(n))))
	}
}
