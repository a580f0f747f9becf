// Package core implements the paper's contribution: the bookmarking
// collector (BC). BC is a generational collector with a bump-pointer
// nursery, a segregated-fit mark-sweep mature space over superpages, a
// page-based large object space, and compaction under memory pressure —
// and, centrally, it cooperates with the virtual memory manager so that
// collection never touches evicted pages:
//
//   - it tracks page residency in a bit array (§3.3.1);
//   - it hands the VMM empty pages, a whole bitmap word at a time, before
//     surrendering any occupied page (§3.3.2, §3.4.3);
//   - it shrinks its heap to the current footprint under pressure
//     (§3.3.3);
//   - when an occupied page must go, it scans it, bookmarks the targets
//     of its outgoing references, bumps incoming-bookmark counters in the
//     target superpages' headers, conservatively bookmarks the page's own
//     objects, protects the page, and relinquishes it (§3.4);
//   - full collections treat memory-resident bookmarked objects as roots
//     and ignore references to evicted pages (§3.4.1);
//   - on reload it decrements incoming counters and clears bookmarks that
//     are no longer needed (§3.4.2);
//   - if the heap is exhausted anyway, a fail-safe collection discards
//     every bookmark and collects the whole heap, touching evicted pages
//     (§3.5).
package core

import (
	"fmt"

	"bookmarkgc/internal/gc"
	"bookmarkgc/internal/heappolicy"
	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/metrics"
	"bookmarkgc/internal/objmodel"
	"bookmarkgc/internal/trace"
)

// VictimPolicy selects which page to process when the VMM schedules an
// occupied page for eviction. The alternatives are the paper's proposed
// future-work strategies (§7).
type VictimPolicy uint8

const (
	// VictimDefault accepts the VMM's LRU choice.
	VictimDefault VictimPolicy = iota
	// VictimPreferPointerFree redirects the eviction to a resident mature
	// page containing no pointers when the LRU choice has many, avoiding
	// bookmarks (and false garbage) entirely.
	VictimPreferPointerFree
)

// Config selects BC variants.
type Config struct {
	// ResizeOnly disables bookmarking: BC still discards empty pages and
	// shrinks its heap, but occupied pages evict unprocessed and
	// collections touch evicted pages. This is the "BC w/Resizing only"
	// variant of Figure 5.
	ResizeOnly bool
	// Victim selects the eviction-victim strategy (§7).
	Victim VictimPolicy

	// NoAggressiveDiscard disables the §3.4.3 word-at-a-time discard:
	// each notification hands back at most one empty page. An ablation of
	// the design choice DESIGN.md calls out.
	NoAggressiveDiscard bool

	// debugNoDiscard disables empty-page discarding entirely (used by the
	// safepoint regression test and as a further ablation point).
	debugNoDiscard bool
}

// BC is the bookmarking collector.
type BC struct {
	gc.Base
	gc.Mature
	nursery *gc.Nursery
	cfg     Config

	// Page state as BC tracks it (§3.3.1). resident approximates "backed
	// by a frame"; evicted is exact for pages BC has surrendered.
	resident  *mem.Bitmap
	evicted   *mem.Bitmap
	processed *mem.Bitmap // pages whose eviction-scan set bookmarks

	// nurseryPtrKnown and nurseryPtrs memoize the "does this mature page
	// hold a nursery pointer" veto scan: a page's verdict is in
	// nurseryPtrs while its bit in nurseryPtrKnown is set. A verdict is
	// forgotten when a nursery pointer is stored to the page, and every
	// one whenever the nursery empties, so a cached false verdict is
	// always sound.
	nurseryPtrKnown, nurseryPtrs *mem.Bitmap

	// books are the maps and records below, kept on the Go heap and
	// handed from run to run.
	books

	discardCredit int // aggressive-discard slack (§3.4.3)
	discardCursor int // rotating scan position for discardable pages

	// bookAdds counts BC's own changes that can make a page discardable:
	// a residency bit set, an evicted bit cleared (discardAdds).
	bookAdds uint64
	// missCached says the last search found no discardable page at all,
	// and missAt is discardAdds() as it stood then. While the sum has not
	// moved, the next search is a miss too (giveDiscardables).
	missCached bool
	missAt     uint64

	inGC          bool
	pendingGC     bool   // eviction handler requested a collection (§3.3.2)
	allocsSinceGC uint64 // mutator progress since the last handler-triggered GC

	// gcRequestAfter is the allocation progress required before the
	// eviction handler may request another collection. It starts at
	// minGCRequestAfter and doubles each time a requested collection
	// frees no pages (the mutator is retaining everything), so repeated
	// no-progress requests back off instead of livelocking the run in
	// futile full collections.
	gcRequestAfter uint64

	evictedHeapPg int // count of evicted heap pages
	residentPg    int // count of resident bits: the footprint shrinkTarget reports

	// silentEvictions counts pages the residency audit found evicted
	// without notification (audit.go). Past silentEvictionLimit the
	// kernel is untrusted and every full collection is the fail-safe.
	silentEvictions int

	// booksValid is false between a fail-safe collection (§3.5), which
	// discards all bookmark state, and the first collection that ends with
	// no pages evicted, and always in the resize-only variant. While false,
	// pages evict unprocessed and collections touch evicted pages: the
	// in-memory-collection invariant (every evicted page's outgoing
	// references are counted and its objects bookmarked) does not hold.
	booksValid bool

	// curWork/curEpoch expose the active full-collection worklist to the
	// eviction handler: a target bookmarked mid-collection must still be
	// marked and scanned by the collection in progress, or its children
	// could be swept while reachable only through the evicted page (the
	// sound form of the paper's preventive bookmarking, §3.4.3).
	curWork  *gc.WorkList
	curEpoch uint32
}

// books is BC's bookkeeping on the Go heap. A collector keeps its maps
// from run to run (BC.Release), and its records come from freeRecords,
// so a warm process's BC allocates only for growth no earlier run
// needed.
type books struct {
	// pageTargets records, per processed page, which regions had their
	// incoming counts raised, so the reload path decrements exactly what
	// eviction incremented. The real implementation re-derives this by
	// rescanning the reloaded page; keeping the record exact avoids drift
	// for objects straddling pages.
	pageTargets map[mem.PageID][]region

	// deferredTargets holds records whose page has reloaded but whose
	// release had to wait: an object the record covers still straddles
	// an evicted page, so the edges recorded for it are not scannable
	// yet. Releasing early would let a reload of the header's page drop
	// the incoming counters protecting targets reachable only through
	// slots that are still paged out.
	deferredTargets map[mem.PageID][]region

	// seen is processAndEvict's set of region keys, kept between
	// evictions so a page's processing allocates nothing once warm.
	seen map[mem.Addr]bool

	// pages is retryDeferred's scratch.
	pages []mem.PageID

	// peak is the most pages pageTargets has held in any run of the
	// collector: New takes the released collector of greatest peak.
	peak int
}

// newBooks returns empty books.
func newBooks() books {
	return books{
		pageTargets:     make(map[mem.PageID][]region),
		deferredTargets: make(map[mem.PageID][]region),
		seen:            make(map[mem.Addr]bool),
	}
}

// dropRecords retires every record the maps hold and empties them.
func (b *books) dropRecords() {
	for _, m := range [2]map[mem.PageID][]region{b.pageTargets, b.deferredTargets} {
		for _, rec := range m {
			retireRecord(rec)
		}
		clear(m)
	}
}

// freeRecords holds emptied page records by capacity, shared by every
// BC: a record grows through it (mem.Classed), so a warm process finds
// every record it needs there.
var freeRecords mem.Classed[region]

// retireRecord gives rec, whose page no longer needs it, back to
// freeRecords.
func retireRecord(rec []region) { freeRecords.Put(rec) }

// Release empties the books for the collector's next run.
func (b *books) Release() {
	b.dropRecords()
	if b.seen == nil { // released mid-eviction by a failed run
		b.seen = make(map[mem.Addr]bool)
	}
	clear(b.seen)
}

var _ gc.Collector = (*BC)(nil)

// New creates a bookmarking collector on env and registers it for paging
// notifications.
func New(env *gc.Env, cfg Config) *BC {
	c, ok := freeBCs.GetLargest(func(c *BC) int { return c.peak })
	if !ok {
		c = new(BC)
	}
	*c = BC{
		books: c.books, // a released collector's, emptied

		// The paper's page-sized write buffer, filtered into cards (§3.1).
		nursery:         gc.NewNursery(env, gc.EntriesPerPage),
		cfg:             cfg,
		resident:        env.Space.NewBitmap(env.Space.Pages()),
		evicted:         env.Space.NewBitmap(env.Space.Pages()),
		processed:       env.Space.NewBitmap(env.Space.Pages()),
		nurseryPtrKnown: env.Space.NewBitmap(env.Space.Pages()),
		nurseryPtrs:     env.Space.NewBitmap(env.Space.Pages()),
		allocsSinceGC:   1 << 20,
		gcRequestAfter:  minGCRequestAfter,
		booksValid:      !cfg.ResizeOnly,
	}
	if c.books.pageTargets == nil {
		c.books = newBooks()
	}
	env.Hold(c)
	c.Init(env, c)
	c.Mature = gc.NewMature(&c.Base)
	c.SS.SetResidencyFilter(c.pageOK)
	c.OnPromote = c.copied
	c.Ladder = c.ladder()
	// The paper's shrink-to-footprint rule is BC's native heap policy;
	// install it unless the harness chose another (a regrowing bc-shrink
	// is the §7 extension).
	if env.HeapPolicy == nil {
		env.HeapPolicy = heappolicy.NewBCShrink(heappolicy.BCShrinkOptions{})
	}
	env.Proc.Register((*bcHandler)(c))
	c.resizeNursery()
	return c
}

// freeBCs holds released collectors.
var freeBCs mem.FreeList[*BC]

// Release empties the collector's books and hands it to the next New.
// The environment calls it (gc.Env.ReleaseScratch) once the run has
// ended: nothing may use c after.
func (c *BC) Release() {
	c.books.Release()
	freeBCs.Put(c)
}

// Name implements gc.Collector.
func (c *BC) Name() string {
	if c.cfg.ResizeOnly {
		return "BCResizeOnly"
	}
	return "BC"
}

// UsedPages implements gc.Collector.
func (c *BC) UsedPages() int { return c.MatureUsedPages() + c.nursery.UsedPages() }

// EmptyWord implements gc.Collector: the nursery's pages past the
// frontier (the §3.4.3 reserve included), the pages of unassigned
// superpages and the free large-object pages.
func (c *BC) EmptyWord(wi int) uint64 {
	return c.nursery.EmptyWord(wi) | c.SS.EmptyWord(wi) | c.LOS.EmptyWord(wi)
}

// pageOK reports whether BC may touch page p: anything it has not seen
// evicted (§3.3.1 — the bit array consulted instead of the kernel). Without
// valid books (resize-only, or after a fail-safe) BC has no bookmarks to
// fall back on and touches evicted pages like any other collector.
func (c *BC) pageOK(p mem.PageID) bool {
	return !c.booksValid || !c.evicted.Test(int(p))
}

// resetNursery empties the nursery (and its remembered set) after a
// collection and drops the other structure keyed to its contents: the
// nursery-pointer page cache.
func (c *BC) resetNursery() {
	c.nursery.Reset()
	c.nurseryPtrKnown.ClearAll()
}

// reservePages is the empty-page reserve of §3.4.3: a store of empty,
// memory-resident pages kept beyond the nursery budget. When the VMM
// schedules evictions while a collection is running (or faster than BC
// can react), these absorb the pressure — BC discards them instead of
// surrendering occupied pages mid-collection.
const reservePages = 128

// resizeNursery applies the Appel policy within the effective budget
// (the configured size squeezed by the heap policy — for BC's default
// bc-shrink, by memory pressure, §3.3.3) and replenishes the empty-page
// reserve.
func (c *BC) resizeNursery() {
	c.nursery.Resize(c.NurseryRoom())

	// Replenish the reserve: touch pages just beyond the nursery budget
	// so they are resident and empty — pageDiscardable recognizes any
	// nursery-region page past the frontier, so the eviction handler
	// hands these out first (§3.4.3).
	limit := c.nursery.Base() + mem.Addr(c.nursery.Budget())
	for i := 0; i < reservePages; i++ {
		a := limit + mem.Addr(i)*mem.PageSize
		if !c.nursery.Contains(a) {
			break
		}
		p := a.Page()
		if c.evicted.Test(int(p)) || c.resident.Test(int(p)) {
			continue
		}
		c.E.Proc.Touch(p, false)
		c.setResident(p)
	}
}

// setResident and clearResident are the only writers of the residency
// bit array; they keep residentPg equal to its population count.
func (c *BC) setResident(p mem.PageID) {
	if !c.resident.Test(int(p)) {
		c.resident.Set(int(p))
		c.residentPg++
		c.bookAdds++
	}
}

func (c *BC) clearResident(p mem.PageID) {
	if c.resident.Test(int(p)) {
		c.resident.Clear(int(p))
		c.residentPg--
	}
}

// markRangeResident updates the residency bit array for [a, a+bytes).
func (c *BC) markRangeResident(a mem.Addr, bytes int) {
	first, last := mem.PagesIn(a, uint64(bytes))
	for p := first; p <= last; p++ {
		if c.evicted.Test(int(p)) {
			// Writing here would have major-faulted and the reload
			// handler already fixed the books; nothing to do.
			continue
		}
		c.setResident(p)
	}
}

// Alloc implements gc.Collector. The first safepoint after the eviction
// handler asked for a collection runs it; then allocation takes the
// shared path over BC's ladder.
func (c *BC) Alloc(t *objmodel.Type, arrayLen int) objmodel.Ref {
	if c.pendingGC {
		// Freshly emptied pages become discardable for the next
		// notifications (§3.3.2).
		c.pendingGC = false
		before := c.UsedPages()
		c.Collect(true)
		if c.UsedPages() >= before {
			// The requested collection freed nothing: the mutator is
			// retaining what it allocates, and asking again soon cannot
			// help. Require more allocation progress each time.
			if c.gcRequestAfter < maxGCRequestAfter {
				c.gcRequestAfter *= 2
				c.E.Counters.Inc(trace.CGCRequestBackoffs)
			}
		} else {
			c.gcRequestAfter = minGCRequestAfter
		}
	}
	return c.Base.Alloc(t, arrayLen)
}

// ladder is BC's allocation ladder and collections. Placement is
// GenMS's, and it keeps the residency books and counts mutator progress
// before the allocation is counted and the policy ticked: a nursery
// resize touches pages, so it can fire the eviction handler, which reads
// allocsSinceGC. The collection cycle is GenMS's over BC's own nursery
// and full collections, with no live-data check: BC runs out of memory
// only past its last rung. The rungs are the paper's: nursery
// collection, then full mark-sweep, then compaction (§3.2), then the
// completeness fail-safe (§3.5).
func (c *BC) ladder() gc.Ladder {
	young := c.YoungFirst(c.nursery)
	return gc.Ladder{
		Place: func(t *objmodel.Type, arrayLen, total int, small bool) objmodel.Ref {
			o := young(t, arrayLen, total, small)
			if o != mem.Nil {
				c.markRangeResident(o, total)
				c.allocsSinceGC++
			}
			return o
		},
		Rungs: []func(){
			func() { c.Collect(false) },
			func() { c.Collect(true) },
			c.compact,
			func() {
				if c.evictedHeapPg > 0 && !c.cfg.ResizeOnly {
					c.failSafe()
				}
			},
			// Evicted pages force compaction targets and pin garbage via
			// bookmarks; after the fail-safe reloaded and unbookmarked
			// everything, one more compaction can finally densify.
			c.compact,
		},
		Young: c.nurseryGC,
		Room:  c.NurseryRoom,
		Full:  c.fullGC,
		// After each collection, and when the target rose: a regrowing
		// bc-shrink raises it again once the VMM has had free memory for
		// a while (§7 extension).
		Grow: c.resizeNursery,
		OOM: func(need int) gc.ErrOutOfMemory {
			oom := c.OOM(c.Budget())
			oom.Detail = fmt.Sprintf("mature=%dp los=%dp nursery=%dp supers=%d evicted=%dp need=%dB",
				c.SS.UsedPages(), c.LOS.UsedPages(), c.nursery.UsedPages(),
				c.SS.InUseSupers(), c.evictedHeapPg, need)
			return oom
		},
	}
}

// WriteRef implements gc.Collector with the generational write barrier
// feeding the page-sized write buffer (§3.1).
func (c *BC) WriteRef(o objmodel.Ref, i int, v objmodel.Ref) {
	slot := c.WriteRefRaw(o, i, v)
	if c.nursery.Barrier(o, slot, v) {
		c.nurseryPtrKnown.Clear(int(slot.Page())) // a cached "no nursery pointer" verdict just became false
	}
}

// minGCRequestAfter / maxGCRequestAfter bound the allocation-progress
// threshold for handler-requested collections (see gcRequestAfter).
const (
	minGCRequestAfter = 512
	maxGCRequestAfter = 1 << 16
)

// Collect implements gc.Collector: the shared collection cycle over
// BC's nursery and full collections, never re-entered from a handler
// and only once the books agree with the kernel.
func (c *BC) Collect(full bool) {
	if c.inGC {
		return
	}
	// Before trusting any of the books, reconcile them with the kernel:
	// pages may have left or returned without the notifications that
	// normally keep the bit arrays true (audit.go).
	c.auditResidency()
	c.Base.Collect(full)
}

// scanSlots is BC's one slot reader: it visits o's non-nil reference
// slots, skipping slots that lie on evicted pages. Those cannot be read,
// and the record made when their page left covers their targets (§3.4).
func (c *BC) scanSlots(o objmodel.Ref, fn func(slot mem.Addr, tgt objmodel.Ref)) {
	t, n := c.E.Types.TypeOf(c.E.Space, o)
	for i := 0; i < t.NumRefSlots(n); i++ {
		slot := t.RefSlotAddr(o, i)
		if !c.pageOK(slot.Page()) {
			continue
		}
		if tgt := c.E.Space.ReadAddr(slot); tgt != mem.Nil {
			fn(slot, tgt)
		}
	}
}

// scanLive is scanSlots without the targets whose header page is
// evicted: a trace cannot mark them, and their bookmarks keep them alive
// (§3.4.1).
func (c *BC) scanLive(o objmodel.Ref, fn func(slot mem.Addr, tgt objmodel.Ref)) {
	c.scanSlots(o, func(slot mem.Addr, tgt objmodel.Ref) {
		if c.pageOK(tgt.Page()) {
			fn(slot, tgt)
		}
	})
}

// copied keeps the books for a GC copy that landed on [dst, dst+size): a
// promotion (gc.Mature.OnPromote; it allocates only on resident pages,
// through the residency filter installed on the superpage space) or a
// compaction move. It also drops the memoized "no nursery pointer"
// verdict of every page the copy landed on: the copied fields may
// include not-yet-forwarded nursery references, which the mutator-side
// invalidation in WriteRef never sees; a stale false verdict here would
// let a mid-collection eviction process the page and silently drop those
// edges (bookmarks cannot point into the nursery).
func (c *BC) copied(dst objmodel.Ref, size int) {
	c.markRangeResident(dst, size)
	for p := dst.Page(); p <= (dst + mem.Addr(size) - 1).Page(); p++ {
		c.nurseryPtrKnown.Clear(int(p))
	}
}

// nurseryGC copies nursery survivors into the mature space. Roots are the
// mutator roots, the write buffer, and the card table the buffer was
// filtered into (§3.1).
func (c *BC) nurseryGC() {
	defer c.enterGC()()
	defer c.Pause(metrics.PauseNursery).End()
	c.E.Trace.Begin(trace.PhaseNurseryScan)
	defer c.E.Trace.End(trace.PhaseNurseryScan)

	work := c.E.GetWorkList()
	defer c.E.PutWorkList(work)
	fwd := func(slot mem.Addr, tgt objmodel.Ref) {
		if c.nursery.Contains(tgt) {
			c.E.Space.WriteAddr(slot, c.Promote(tgt, work))
		}
	}
	c.nursery.Rem.ForEachSlot(func(slot mem.Addr) {
		if !c.pageOK(slot.Page()) {
			return // the slot's page was evicted; it held no nursery pointer
		}
		if tgt := c.E.Space.ReadAddr(slot); tgt != mem.Nil {
			fwd(slot, tgt)
		}
	})
	c.nursery.Rem.ForEachCard(func(start, end mem.Addr) {
		c.scanCard(start, end, fwd)
	})
	c.E.Trace.Begin(trace.PhaseRootScan)
	c.Roots().ForEach(func(slot *mem.Addr) {
		if c.nursery.Contains(*slot) {
			*slot = c.Promote(*slot, work)
		}
	})
	c.E.Trace.End(trace.PhaseRootScan)
	// Fresh copies live on resident pages, but their slots may point
	// anywhere; only nursery targets matter here.
	gc.Drain(c.E, work, fwd)
	c.resetNursery()
	c.CollectionDone()
}

// scanCard visits the objects overlapping a marked card and forwards
// their nursery references. Cards only ever cover resident pages: a page
// is scanned and protected before eviction, and pages holding nursery
// pointers are vetoed as victims.
func (c *BC) scanCard(start, end mem.Addr, fwd func(slot mem.Addr, tgt objmodel.Ref)) {
	c.objectsIn(start, end, func(o objmodel.Ref) {
		if c.pageOK(o.Page()) {
			c.scanLive(o, fwd)
		}
	})
}

// bookmarkRoots marks every memory-resident bookmarked object of a root
// region (bookmarkRoot) as if it were root-referenced (§3.4.1).
func (c *BC) bookmarkRoots(work *gc.WorkList, epoch uint32) {
	c.forEachRegion(false, func(r region) {
		if !c.bookmarkRoot(r) {
			return
		}
		c.objectsOf(r, func(o objmodel.Ref) {
			if c.pageOK(o.Page()) && objmodel.Bookmarked(c.E.Space, o) {
				gc.MarkStep(c.E, work, o, epoch)
			}
		})
	})
}

// anyEvicted reports whether any page of [first, last] is evicted.
func (c *BC) anyEvicted(first, last mem.PageID) bool {
	for p := first; p <= last; p++ {
		if c.evicted.Test(int(p)) {
			return true
		}
	}
	return false
}

// enterGC marks a collection in progress and returns the func that ends
// it (defer it), which also detaches the eviction handler from the
// collection's worklist and only then retires that stack: until the
// collection ends, an eviction notice may still push to it.
func (c *BC) enterGC() func() {
	c.inGC = true
	return func() {
		if c.curWork != nil {
			c.E.PutWorkList(c.curWork)
		}
		c.inGC, c.curWork = false, nil
	}
}

// bookmarksAreRoots reports whether a trace must start from the resident
// bookmarked objects too (§3.4.1): pages are evicted, and the books that
// say what they point to hold.
func (c *BC) bookmarksAreRoots() bool {
	return c.evictedHeapPg > 0 && c.booksValid
}

// markSweep is BC's one heap trace, shared by the full collection, the
// compaction census and the fail-safe: the gc.Mature trace with the
// bookmark roots scanned inside the mark span, before the mutator's.
// young is evacuated through PromoteMarked. pageOK names the pages the
// trace may touch; nil touches every page, and then the sweep passes the
// superpage space's residency filter too. The eviction handler sees the
// trace in progress through curWork/curEpoch, which stay set, and the
// stack the trace's, until the collection ends (enterGC).
func (c *BC) markSweep(young *gc.Nursery, pageOK func(mem.PageID) bool) {
	t := c.BeginTrace(young, pageOK, c.PromoteMarked)
	c.curWork, c.curEpoch = t.Work, t.Epoch
	c.E.Trace.Begin(trace.PhaseMark)
	if c.bookmarksAreRoots() {
		c.bookmarkRoots(t.Work, t.Epoch)
	}
	t.ScanRoots()
	t.Mark()
	c.E.Trace.End(trace.PhaseMark)
	if pageOK == nil {
		c.SS.SetResidencyFilter(nil)
		defer c.SS.SetResidencyFilter(c.pageOK)
	}
	t.Sweep()
}

// fullGC is the in-memory full-heap collection (§3.4.1): bookmarked
// objects are secondary roots, references to evicted pages are ignored,
// and only memory-resident pages are swept.
func (c *BC) fullGC() {
	if c.untrusted() && !c.cfg.ResizeOnly {
		// Notifications have proven untrustworthy (audit.go): the
		// bookmark invariant cannot be maintained, so every full
		// collection is the §3.5 fail-safe from here on.
		c.E.Counters.Inc(trace.CFailSafesForced)
		c.failSafe()
		return
	}
	defer c.enterGC()()
	defer c.Pause(metrics.PauseFull).End()
	c.markSweep(c.nursery, c.pageOK)
	c.resetNursery()
	c.maybeRevalidate()
	c.CollectionDone()
}

// invalidateBooks stops trusting the bookmark books (booksValid). pageOK
// then admits every page, so each superpage the allocator dropped because
// its free blocks sat on evicted pages is offered again.
func (c *BC) invalidateBooks() {
	if !c.booksValid {
		return // pageOK admits every page already: nothing is refused
	}
	c.booksValid = false
	for idx := 0; idx < c.SS.HighWater(); idx++ {
		c.SS.Reoffer(idx)
	}
}

// maybeRevalidate restores cooperative mode once nothing is evicted: the
// bookmark invariant then holds trivially. An untrusted kernel (audit.go)
// never revalidates — pages will keep leaving without notice, so freshly
// rebuilt books would be wrong again immediately — and neither does the
// resize-only variant, which keeps no books.
func (c *BC) maybeRevalidate() {
	if !c.booksValid && c.evictedHeapPg == 0 && !c.untrusted() && !c.cfg.ResizeOnly {
		c.booksValid = true
	}
}
