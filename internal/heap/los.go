package heap

import (
	"slices"

	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/objmodel"
	"bookmarkgc/internal/trace"
)

// LOS is the page-based large object space (§3): objects bigger than the
// largest size class each occupy a dedicated run of whole pages. Run
// bookkeeping is kept off to the side (as MMTk's treadmill does); object
// headers and payloads live in the heap proper.
type LOS struct {
	s    *mem.Space
	base mem.Addr
	n    int // pages in the region

	free    pageBits        // free pages
	runLen  []int32         // per region page: pages in the run of the object starting there, else 0
	sorted  []mem.Addr      // the objects in address order
	dead    []mem.Addr      // sweep scratch, reused across collections
	runsBuf [][2]mem.PageID // Sweep's result buffer, reused across collections
	inUse   int             // pages allocated
	// incoming holds, per region page, the incoming-bookmark count of
	// the object starting there (§3.4): no page access.
	incoming []int32

	emptyAdds uint64 // Frees: the only writes that set free bits

	counters *trace.Counters // optional registry (nil-safe)
}

// NewLOS creates a large object space over [base, end).
func NewLOS(s *mem.Space, base, end mem.Addr) *LOS {
	if base%mem.PageSize != 0 || end%mem.PageSize != 0 || end <= base {
		panic("heap: unaligned LOS region")
	}
	n := int((end - base) / mem.PageSize)
	l, ok := freeLOSes.Get()
	if !ok {
		l = new(LOS)
	}
	*l = LOS{s: s, base: base, n: n, free: newPageBits(s, base, end),
		runLen: s.LendInt32s(n), incoming: s.LendInt32s(n)}
	l.free.setPages(base.Page(), n)
	return l
}

// Released spaces, and their lists by capacity: the lists grow through
// them (mem.Classed).
var (
	freeLOSes     mem.FreeList[*LOS]
	freeAddrLists mem.Classed[mem.Addr]
	freeRunLists  mem.Classed[[2]mem.PageID]
)

// Release gives l and its lists back to their free lists; its tables go
// back with its Space. Call it once the run has ended, when nothing uses
// l again.
func (l *LOS) Release() {
	freeAddrLists.Put(l.sorted)
	freeAddrLists.Put(l.dead)
	freeRunLists.Put(l.runsBuf)
	*l = LOS{}
	freeLOSes.Put(l)
}

// at returns the region page index of large object o.
func (l *LOS) at(o objmodel.Ref) int { return int(o.Page() - l.base.Page()) }

// SetCounters attaches a counter registry recording large-object
// allocation volume. nil detaches.
func (l *LOS) SetCounters(c *trace.Counters) { l.counters = c }

// Contains reports whether a lies in the LOS region.
func (l *LOS) Contains(a mem.Addr) bool {
	return a >= l.base && a < l.base+mem.Addr(l.n)*mem.PageSize
}

// UsedPages returns the number of allocated LOS pages.
func (l *LOS) UsedPages() int { return l.inUse }

// Objects returns the number of live large objects.
func (l *LOS) Objects() int { return len(l.sorted) }

// Alloc places an object of type t on a fresh run of pages, first-fit.
// Returns mem.Nil if no run is free (caller collects).
func (l *LOS) Alloc(t *objmodel.Type, arrayLen int) objmodel.Ref {
	pages := int(mem.RoundUpPage(uint64(t.TotalBytes(arrayLen))) / mem.PageSize)
	start := l.findRun(pages)
	if start < 0 {
		return mem.Nil
	}
	first := l.free.page(start)
	l.free.clearPages(first, pages)
	l.inUse += pages
	o := mem.PageAddr(first)
	l.runLen[l.at(o)] = int32(pages)
	i, _ := slices.BinarySearch(l.sorted, o)
	l.sorted = slices.Insert(freeAddrLists.Grow(l.sorted, 1), i, o)
	l.counters.Inc(trace.CLOSAllocs)
	l.counters.Add(trace.CLOSPagesAllocated, uint64(pages))
	objmodel.ClearStatus(l.s, o)
	objmodel.SetTypeWord(l.s, o, t.ID, arrayLen)
	l.s.ZeroRange(objmodel.Payload(o), uint64(t.PayloadWords(arrayLen))*mem.WordSize)
	return o
}

// findRun locates pages consecutive free pages, first-fit, and returns
// the free-bitmap index of the first (-1 if there is no such run).
func (l *LOS) findRun(pages int) int {
	for i := l.free.NextSet(0); i >= 0; i = l.free.NextSet(i + 1) {
		run := 1
		for run < pages && i+run < l.free.Len() && l.free.Test(i+run) {
			run++
		}
		if run == pages {
			return i
		}
		i += run - 1
	}
	return -1
}

// Free releases the run holding o, gives its pages' host bodies back
// (mem.ForgetPages; Alloc writes the next object before it is read), and
// returns its page range so the caller can discard the pages.
func (l *LOS) Free(o objmodel.Ref) (first, last mem.PageID) {
	pages := int(l.runLen[l.at(o)])
	if pages == 0 {
		panic("heap: LOS free of unknown object")
	}
	l.runLen[l.at(o)], l.incoming[l.at(o)] = 0, 0
	i, _ := slices.BinarySearch(l.sorted, o)
	l.sorted = slices.Delete(l.sorted, i, i+1)
	l.free.setPages(o.Page(), pages)
	l.s.ForgetPages(o.Page(), o.Page()+mem.PageID(pages))
	l.emptyAdds++
	l.inUse -= pages
	return o.Page(), o.Page() + mem.PageID(pages) - 1
}

// PagesOf returns the page range of a live large object.
func (l *LOS) PagesOf(o objmodel.Ref) (first, last mem.PageID) {
	pages := l.runLen[l.at(o)]
	return o.Page(), o.Page() + mem.PageID(pages) - 1
}

// ForEachObject visits live large objects in address order; fn must not
// allocate or free one. The visit itself does not touch heap pages;
// callers touching headers will.
func (l *LOS) ForEachObject(fn func(o objmodel.Ref)) {
	for _, o := range l.sorted {
		fn(o)
	}
}

// ObjectContaining returns the large object whose run covers a, if any:
// by binary search, the last object at or below a if its run reaches a.
func (l *LOS) ObjectContaining(a mem.Addr) (objmodel.Ref, bool) {
	if !l.Contains(a) {
		return mem.Nil, false
	}
	if i, _ := slices.BinarySearch(l.sorted, a+1); i > 0 {
		if o := l.sorted[i-1]; a < o+mem.Addr(l.runLen[l.at(o)])*mem.PageSize {
			return o, true
		}
	}
	return mem.Nil, false
}

// Incoming returns large object o's incoming-bookmark count.
func (l *LOS) Incoming(o objmodel.Ref) int { return int(l.incoming[l.at(o)]) }

// IncIncoming bumps live object o's incoming-bookmark count.
func (l *LOS) IncIncoming(o objmodel.Ref) { l.incoming[l.at(o)]++ }

// DecIncoming decrements o's count, saturating at zero, and returns it.
func (l *LOS) DecIncoming(o objmodel.Ref) int {
	c := &l.incoming[l.at(o)]
	*c = max(*c-1, 0)
	return int(*c)
}

// SetIncoming overwrites live object o's count (the fail-safe, §3.5).
func (l *LOS) SetIncoming(o objmodel.Ref, v int) { l.incoming[l.at(o)] = int32(v) }

// IsFreePage reports in O(1) whether page p is a free page of the region.
func (l *LOS) IsFreePage(p mem.PageID) bool {
	return l.Contains(mem.PageAddr(p)) && l.free.Test(l.free.bit(p))
}

// EmptyWord returns word wi of the region's free pages as a bitmap
// indexed by absolute page number (zero outside the region). The free
// bitmap is stored in that alignment, so this is one load.
func (l *LOS) EmptyWord(wi int) uint64 { return l.free.word(wi) }

// EmptyAdds counts the changes that may have added pages to EmptyWord:
// only Free sets free bits.
func (l *LOS) EmptyAdds() uint64 { return l.emptyAdds }

// Sweep frees every large object unmarked in epoch. Objects whose header
// page fails the optional residency filter are skipped (BC never touches
// evicted pages). Returns freed objects and their page ranges; the runs
// slice is reused by the next Sweep, so callers must not retain it.
func (l *LOS) Sweep(epoch uint32, resident func(mem.PageID) bool) (freed int, runs [][2]mem.PageID) {
	runs = l.runsBuf[:0]
	dead := l.dead[:0]
	l.ForEachObject(func(o objmodel.Ref) {
		if resident != nil && !resident(o.Page()) {
			return
		}
		if objmodel.Marked(l.s, o, epoch) || objmodel.Bookmarked(l.s, o) {
			return
		}
		dead = freeAddrLists.Append(dead, o)
	})
	l.dead = dead
	for _, o := range dead {
		f, la := l.Free(o)
		runs = freeRunLists.Append(runs, [2]mem.PageID{f, la})
	}
	l.runsBuf = runs
	return len(dead), runs
}
