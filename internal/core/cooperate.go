package core

import (
	"cmp"
	"math/bits"
	"slices"

	"bookmarkgc/internal/gc"
	"bookmarkgc/internal/heappolicy"
	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/objmodel"
	"bookmarkgc/internal/trace"
	"bookmarkgc/internal/vmm"
)

// bcHandler adapts BC to the vmm.Handler interface. It is a distinct type
// so the notification entry points are clearly separated from the
// collector's mutator-facing API.
type bcHandler BC

// EvictionScheduled implements vmm.Handler — the paper's §3.3–3.4
// protocol, in order:
//
//  1. note that the footprint now exceeds available memory and shrink the
//     heap target (§3.3.3);
//  2. if the page must stay (nursery page, superpage header), touch it so
//     the VMM picks another victim (§3.4);
//  3. if the page — or any other page — is empty, discard empties instead
//     (aggressively, a bitmap word at a time, §3.3.2/§3.4.3);
//  4. otherwise collect, hoping to free pages;
//  5. otherwise bookmark the victim and relinquish it (§3.4).
func (h *bcHandler) EvictionScheduled(p mem.PageID) {
	c := (*BC)(h)
	// Trust no notification blindly: the signal may be stale (the kernel
	// already evicted or discarded the page before delivery) or a
	// duplicate of one already acted on. Acting on either would scan a
	// page that is gone or unbookmark state mid-eviction. The kernel's
	// page table is the authority; a genuinely fresh notification always
	// names a resident page BC does not yet count as leaving.
	switch st := c.E.Proc.State(p); {
	case st == vmm.Evicted && !c.evicted.Test(int(p)):
		// The page left before the signal landed — a silent eviction
		// learned about late. Repair now rather than at the next audit.
		c.noteSilentEviction(p)
		c.E.Counters.Inc(trace.CNoticesSilentRepair)
		return
	case st != vmm.Resident:
		c.E.Trace.Point(trace.EvNotificationIgnored, int64(p), 0)
		c.E.Counters.Inc(trace.CStaleNotices)
		return
	case c.evicted.Test(int(p)):
		// Already mid-eviction in BC's books (processed and relinquished,
		// or noted as leaving): a repeated delivery.
		c.E.Trace.Point(trace.EvNotificationIgnored, int64(p), 1)
		c.E.Counters.Inc(trace.CDuplicateNotices)
		return
	}
	c.E.Trace.Point(trace.EvEvictionScheduled, int64(p), 0)
	c.shrinkTarget()

	if c.mustKeep(p) {
		c.E.Proc.Touch(p, false) // veto: a different victim gets scheduled
		c.giveDiscardables(p)    // still relieve pressure if we can
		c.E.Counters.Inc(trace.CNoticesMustKeepVeto)
		return
	}
	if c.discardIfEmpty(p) {
		c.E.Counters.Inc(trace.CNoticesVictimDiscarded)
		return
	}
	if c.giveDiscardables(p) > 0 {
		c.E.Proc.Touch(p, false) // veto the occupied page; we paid in empties
		c.E.Counters.Inc(trace.CNoticesPaidInEmpties)
		return
	}
	// No discardable page: request a collection (§3.3.2). The signal can
	// arrive in the middle of any mutator operation, and a collection
	// moves objects, so it must wait for the next GC safepoint (Alloc) —
	// here we can only bookmark, discard, and veto, all non-moving.
	// Guard against requesting repeatedly with no allocation progress in
	// between: a mutator that is only reading generates no new garbage.
	// The threshold doubles while requested collections free nothing
	// (see Alloc), so a mutator retaining everything it allocates does
	// not drown in futile full collections.
	if !c.inGC && c.allocsSinceGC >= c.gcRequestAfter {
		c.allocsSinceGC = 0
		c.pendingGC = true
	}
	if !c.booksValid {
		// Resize-only variant, or bookmark state discarded by a
		// fail-safe: let the VMM take the page; we only track that it
		// left.
		c.noteEvicted(p)
		c.E.Counters.Inc(trace.CNoticesNotedOnly)
		return
	}
	victim := c.chooseVictim(p)
	if victim != p {
		c.E.Proc.Touch(p, false) // veto the scheduled page
		c.E.Counters.Inc(trace.CNoticesRedirected)
	} else {
		c.E.Counters.Inc(trace.CNoticesBookmarked)
	}
	c.processAndEvict(victim)
}

// PageReloaded implements vmm.Handler: a major fault brought the page
// back (wasEvicted) or the mutator hit the protection BC placed on a
// scanned page. Either way, access is re-enabled and bookmarks induced by
// this page are cleared (§3.4.2).
func (h *bcHandler) PageReloaded(p mem.PageID, wasEvicted bool) {
	c := (*BC)(h)
	// A reload the kernel could legitimately report names a page that is
	// resident and unprotected: a major fault leaves the page resident
	// before the signal, and a protection fault clears the protection
	// before delivering it. Anything else is spurious — and acting on a
	// forged reload for a protected page awaiting eviction would clear
	// bookmarks whose page is still going to leave, losing its edges.
	if c.E.Proc.State(p) != vmm.Resident || c.E.Proc.Protected(p) {
		c.E.Trace.Point(trace.EvNotificationIgnored, int64(p), 2)
		c.E.Counters.Inc(trace.CSpuriousReloads)
		return
	}
	wasEv := int64(0)
	if wasEvicted {
		wasEv = 1
	}
	c.E.Trace.Point(trace.EvPageReloaded, int64(p), wasEv)
	c.E.Counters.Inc(trace.CPagesReloaded)
	c.reloadBooks(p)
}

// reloadBooks performs the §3.4.2 reload bookkeeping for page p: access
// restored, residency bits fixed, and — if p's eviction-time scan set
// bookmarks — incoming counters decremented and stale bookmarks cleared.
// Shared by the reload handler and the residency audit.
func (c *BC) reloadBooks(p mem.PageID) {
	c.E.Proc.Unprotect(p)
	if c.evicted.Test(int(p)) {
		c.evicted.Clear(int(p))
		c.evictedHeapPg--
		c.bookAdds++
		if a := mem.PageAddr(p); c.SS.Contains(a) {
			c.SS.Reoffer(c.SS.SuperIndex(a)) // pageOK admits p again
		}
	}
	c.setResident(p)
	if c.processed.Test(int(p)) {
		c.processed.Clear(int(p))
		c.unbookmarkPage(p)
	}
	// p becoming resident may complete the extent of a straddling object
	// some earlier reload's release was waiting on.
	c.retryDeferred()
}

// shrinkTarget reports the eviction notice to the heap policy with
// BC's own residency books as the footprint: with the default
// bc-shrink policy this limits the heap to the current footprint
// (§3.3.3). The credit from aggressive discards keeps those voluntary
// returns from shrinking the target further (§3.4.3).
func (c *BC) shrinkTarget() {
	gc.ObserveHeapPolicy(c, heappolicy.EvPressure, c.residentPg+c.discardCredit)
}

// mustKeep reports whether p must not be evicted: nursery pages the
// allocator is about to reuse, in-use superpage headers (whose metadata
// must stay resident for constant-time access, §3.4), and — a soundness
// addition — mature pages holding pointers into the nursery, which the
// next nursery collection must update.
func (c *BC) mustKeep(p mem.PageID) bool {
	a := mem.PageAddr(p)
	if c.nursery.Contains(a) {
		return a < c.nursery.Base()+mem.Addr(c.nursery.Budget())
	}
	if c.SS.Contains(a) {
		idx := c.SS.SuperIndex(a)
		if !c.SS.Used(idx) {
			return false
		}
		if c.SS.HeaderPage(idx) == p {
			return true
		}
		// The verdict is memoized: invalidated by nursery-pointer stores,
		// dropped whenever the nursery empties.
		if c.nurseryPtrKnown.Test(int(p)) {
			return c.nurseryPtrs.Test(int(p))
		}
		v := c.pagePoints(p, c.nursery.Contains)
		c.nurseryPtrKnown.Set(int(p))
		if v {
			c.nurseryPtrs.Set(int(p))
		} else {
			c.nurseryPtrs.Clear(int(p))
		}
		return v
	}
	return false
}

// pagePoints reports whether an object BC may touch on mature page p
// holds a pointer, to a target it may touch, that pred accepts. It is
// the one "does this page point there" scan: the nursery-pointer veto and
// the pointer-free victim policy both ask it.
func (c *BC) pagePoints(p mem.PageID, pred func(tgt objmodel.Ref) bool) bool {
	a := mem.PageAddr(p)
	found := false
	c.objectsIn(a, a+mem.PageSize, func(o objmodel.Ref) {
		if found || !c.pageOK(o.Page()) {
			return
		}
		c.scanLive(o, func(_ mem.Addr, tgt objmodel.Ref) {
			if pred(tgt) {
				found = true
			}
		})
	})
	return found
}

// discardIfEmpty gives page p back via madvise if it holds no live data.
func (c *BC) discardIfEmpty(p mem.PageID) bool {
	if !c.pageDiscardable(p) {
		return false
	}
	c.discardPage(p)
	return true
}

// discardableWord returns the discardable pages among pages
// [64*wi, 64*wi+64): resident in BC's books, not leaving, and holding no
// live data. The last is each space's own knowledge — the nursery's
// pages past the frontier (the §3.4.3 reserve included), the pages of
// unassigned superpages, the free large-object pages — published by the
// space as a word of an absolute page bitmap, so the whole predicate is
// a handful of word operations for 64 pages and BC keeps no copy that
// could fall out of step. This is the only definition of "discardable".
func (c *BC) discardableWord(wi int) uint64 {
	w := c.resident.Word(wi) &^ c.evicted.Word(wi)
	if w == 0 || c.cfg.debugNoDiscard {
		return 0
	}
	// c.EmptyWord(wi), written out: the three spaces' words inline here,
	// and the call would not.
	return w & (c.nursery.EmptyWord(wi) | c.SS.EmptyWord(wi) | c.LOS.EmptyWord(wi))
}

// discardAdds sums the counts of every change that can add a page to
// discardableWord's answer: a superpage released, a large object freed,
// the nursery reset (each space's EmptyAdds), a residency bit set, an
// evicted bit cleared (bookAdds). Every other write to the predicate's
// inputs only takes pages away, so while the sum stands still the set
// of discardable pages can only shrink.
func (c *BC) discardAdds() uint64 {
	return c.nursery.EmptyAdds() + c.SS.EmptyAdds() + c.LOS.EmptyAdds() + c.bookAdds
}

// pageDiscardable reports whether p is resident and holds no live data.
func (c *BC) pageDiscardable(p mem.PageID) bool {
	return c.discardableWord(int(p)>>6)&(1<<(uint(p)&63)) != 0
}

// discardPage returns one page to the VMM.
func (c *BC) discardPage(p mem.PageID) {
	c.E.Proc.Discard(p)
	c.E.Trace.Point(trace.EvPageDiscarded, int64(p), 0)
	c.E.Counters.Inc(trace.CPagesDiscarded)
	c.clearResident(p)
	c.processed.Clear(int(p))
}

// discardableBut is discardableWord(wi) without page exclude.
func (c *BC) discardableBut(wi int, exclude mem.PageID) uint64 {
	w := c.discardableWord(wi)
	if wi == int(exclude)>>6 {
		w &^= 1 << (uint(exclude) & 63)
	}
	return w
}

// firstDiscardable returns the first discardable page other than
// exclude at or after the rotating cursor, wrapping to the pages below
// it, or -1. It visits each bitmap word once (the cursor's word twice:
// its upper bits first, its lower bits last).
func (c *BC) firstDiscardable(exclude mem.PageID) int {
	cur := c.discardCursor
	if cur >= c.resident.Len() {
		cur = 0
	}
	nw, cw := c.resident.Words(), cur>>6
	below := uint64(1)<<(uint(cur)&63) - 1 // the cursor word's pages below the cursor
	for k := 0; k <= nw; k++ {
		wi := cw + k
		if wi >= nw {
			wi -= nw
		}
		w := c.discardableBut(wi, exclude)
		switch k {
		case 0:
			w &^= below
		case nw:
			w &= below
		}
		if w != 0 {
			return wi<<6 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// giveDiscardables finds empty resident pages and discards them: the
// first one at or after a rotating cursor, and with it every other empty
// page recorded in the same word of the residency bit array — the
// paper's aggressive discard, "a whole bitmap word at a time" (§3.4.3) —
// crediting the extras so the footprint target does not over-shrink.
// Returns the number discarded. exclude is the page currently under
// notification (handled by the caller).
//
// Discardable pages cluster (freed superpages, the nursery tail), so a
// search that resumes where the last one stopped is O(found) on a hit.
// A miss — the common case once the reserve is spent — costs one
// discardableWord per word of the address space: O(words), not O(pages).
// A miss is remembered, so the next notice pays that only if something
// that can add a discardable page has happened since (discardAdds);
// otherwise it is a miss by construction and costs O(1).
func (c *BC) giveDiscardables(exclude mem.PageID) int {
	adds := c.discardAdds()
	if c.missCached && c.missAt == adds {
		c.discardCursor = 0
		return 0
	}
	first := c.firstDiscardable(exclude)
	if first < 0 {
		c.discardCursor = 0
		// A discardable exclude is a hit for a notice about another page.
		c.missCached, c.missAt = !c.pageDiscardable(exclude), adds
		return 0
	}
	c.discardCursor = first + 1
	if c.cfg.NoAggressiveDiscard {
		c.discardPage(mem.PageID(first))
		c.E.Counters.Observe(trace.HDiscardBatch, 1)
		return 1
	}
	w := c.discardableBut(first>>6, exclude)
	n := bits.OnesCount64(w)
	for ; w != 0; w &= w - 1 {
		c.discardPage(mem.PageID(first&^63 + bits.TrailingZeros64(w)))
	}
	if n > 1 {
		c.discardCredit += n - 1
	}
	c.E.Counters.Observe(trace.HDiscardBatch, uint64(n))
	return n
}

// chooseVictim applies the configured victim policy (§7). With the
// pointer-free preference, a sampled resident mature data page without
// outgoing pointers is evicted instead of the LRU choice.
func (c *BC) chooseVictim(p mem.PageID) mem.PageID {
	// Non-mature pages count as pointer-bearing, with nothing to sample
	// near them: the LRU choice stands.
	if c.cfg.Victim != VictimPreferPointerFree || !c.SS.Contains(mem.PageAddr(p)) || !c.pagePoints(p, anyTarget) {
		return p
	}
	// The LRU choice has pointers; sample forward through the mature
	// region for a pointer-free resident page.
	start := c.SS.SuperIndex(mem.PageAddr(p))
	for off := 1; off <= 16; off++ {
		idx := start + off
		if idx >= c.SS.HighWater() || !c.SS.Used(idx) {
			continue
		}
		first, last := c.SS.PagesOf(idx)
		for q := first + 1; q <= last; q++ { // skip header page
			if c.resident.Test(int(q)) && !c.evicted.Test(int(q)) &&
				!c.pagePoints(q, anyTarget) && !c.mustKeep(q) {
				return q
			}
		}
	}
	return p
}

// anyTarget is the pagePoints predicate that accepts every pointer.
func anyTarget(objmodel.Ref) bool { return true }

// noteEvicted updates BC's books for a page that is leaving memory.
func (c *BC) noteEvicted(p mem.PageID) {
	c.clearResident(p)
	if !c.evicted.Test(int(p)) {
		c.evicted.Set(int(p))
		c.evictedHeapPg++
	}
}

// processAndEvict is the heart of §3.4: scan the victim page, bookmark
// the targets of its outgoing references and raise their regions'
// incoming counters, conservatively bookmark the page's own objects,
// protect the page against the eviction race, record the books, and
// relinquish the page to the VMM.
func (c *BC) processAndEvict(p mem.PageID) {
	var rec []region
	// The dedup set is scratch kept on BC. A nested eviction (under chaos
	// a late notice is delivered outside reclaim, and this scan's own
	// accesses can then fault and start one) finds it detached and makes
	// its own.
	seen := c.seen
	c.seen = nil
	if seen == nil {
		seen = map[mem.Addr]bool{}
	}
	booked := int64(0)
	if c.curWork != nil {
		// Bookmarking during a collection: the marks grafted in below are
		// the preventive-bookmarking path (§3.4.1).
		c.E.Trace.Point(trace.EvPreventiveBookmark, int64(p), 0)
		c.E.Counters.Inc(trace.CPreventiveBookmarks)
	}

	bookmarkTarget := func(_ mem.Addr, tgt objmodel.Ref) {
		// The bookmark bit can be set only if the target's page is
		// accessible; a target on an evicted page already carries the
		// conservative bookmark from its own page's eviction. Its
		// region's count must rise either way: it keeps those bookmarks
		// alive if the target's page reloads while this one is out
		// (§3.4.2).
		r, o, ok := c.regionAt(tgt)
		if !ok {
			return
		}
		if c.pageOK(o.Page()) {
			objmodel.SetBookmark(c.E.Space, o)
			c.Stats().Bookmarked++
			booked++
			c.E.Counters.Inc(trace.CObjectsBookmarked)
			if c.curWork != nil {
				// A collection is in progress: the new bookmark must join
				// its mark, or children reachable only through the
				// departing page would be swept.
				gc.MarkStep(c.E, c.curWork, o, c.curEpoch)
			}
		}
		if !seen[r.key()] {
			seen[r.key()] = true
			c.raiseIncoming(r)
			c.E.Counters.Inc(trace.CIncomingBumps)
			rec = freeRecords.Append(rec, r)
		}
	}
	a := mem.PageAddr(p)
	c.objectsIn(a, a+mem.PageSize, func(o objmodel.Ref) {
		if !c.pageOK(o.Page()) {
			return // header already evicted; edges were recorded then
		}
		objmodel.SetBookmark(c.E.Space, o) // conservative (§3.4)
		booked++
		c.E.Counters.Inc(trace.CObjectsBookmarked)
		// scanSlots, not scanLive: a target on an evicted page must still
		// reach bookmarkTarget, because its superpage's incoming counter
		// has to rise either way. Otherwise the target page's reload would
		// see a zero count and clear the conservative bookmark this edge
		// depends on (§3.4.2).
		c.scanSlots(o, bookmarkTarget)
	})

	clear(seen)
	c.seen = seen
	if len(rec) > 0 {
		c.pageTargets[p] = rec
		c.peak = max(c.peak, len(c.pageTargets))
	}
	c.processed.Set(int(p))
	c.noteEvicted(p)
	c.Stats().PagesEvicted++
	c.E.Trace.Point(trace.EvPageProcessed, int64(p), booked)
	c.E.Counters.Inc(trace.CPagesProcessed)
	c.E.Counters.Observe(trace.HPageBookmarks, uint64(booked))
	c.E.Proc.Protect(p)
	c.E.Proc.Relinquish([]mem.PageID{p})
}

// unbookmarkPage undoes what processAndEvict recorded for p: decrement
// the incoming counters it raised, clear bookmarks in regions whose count
// drops to zero, and clear the conservative bookmarks on p itself if its
// own region has no incoming bookmarks (§3.4.2).
//
// A page's record covers every edge of every object that overlapped p
// at processing time — including slots physically on OTHER pages of a
// straddling object, which became unscannable along with the header.
// While a covered object still extends onto an evicted page, its
// decrements are deferred until every page under it is back
// (retryDeferred). Releasing early could clear the bookmark of a target
// reachable only through a slot still paged out, and a collection would
// sweep it.
func (c *BC) unbookmarkPage(p mem.PageID) {
	if rec, ok := c.pageTargets[p]; ok {
		delete(c.pageTargets, p)
		if n := c.straddlingEvicted(p); n > 0 {
			c.E.Trace.Point(trace.EvBookmarkDeferred, int64(p), int64(n))
			c.E.Counters.Inc(trace.CDeferredUnbookmarks)
			if held, ok := c.deferredTargets[p]; ok {
				c.deferredTargets[p] = freeRecords.Append(held, rec...)
				retireRecord(rec)
			} else {
				c.deferredTargets[p] = rec
			}
		} else {
			c.E.Trace.Point(trace.EvBookmarkCleared, int64(p), c.releaseRecord(rec))
			retireRecord(rec)
		}
	} else {
		c.E.Trace.Point(trace.EvBookmarkCleared, int64(p), 0)
	}
	c.clearConservative(p)
}

// releaseRecord applies the decrements a page record holds, clearing the
// resident bookmarks of each region whose count reaches zero (objects on
// the region's own evicted pages keep theirs until those pages reload),
// and reports how many it applied.
func (c *BC) releaseRecord(rec []region) int64 {
	// Superpages (no large object) first, each kind in record order: the
	// order in which releases have always made their charged accesses.
	slices.SortStableFunc(rec, func(a, b region) int { return cmp.Compare(min(a.large, 1), min(b.large, 1)) })
	for _, r := range rec {
		c.E.Counters.Inc(trace.CIncomingDecrements)
		if c.lowerIncoming(r) {
			c.objectsOf(r, c.unbookmark)
		}
	}
	return int64(len(rec))
}

// unbookmark clears o's bookmark if BC may touch its header page.
func (c *BC) unbookmark(o objmodel.Ref) {
	if c.pageOK(o.Page()) {
		objmodel.ClearBookmark(c.E.Space, o)
	}
}

// retryDeferred releases deferred records whose straddling objects have
// fully reloaded. Pages are visited in sorted order so a replay with
// the same seeds clears bookmarks in the same sequence.
func (c *BC) retryDeferred() {
	if len(c.deferredTargets) == 0 {
		return
	}
	pages := c.pages[:0]
	for p := range c.deferredTargets {
		pages = append(pages, p)
	}
	slices.Sort(pages)
	c.pages = nil // a release below may reload pages and come back here
	for _, p := range pages {
		if c.straddlingEvicted(p) > 0 {
			continue
		}
		rec := c.deferredTargets[p]
		delete(c.deferredTargets, p)
		c.E.Trace.Point(trace.EvBookmarkCleared, int64(p), c.releaseRecord(rec))
		retireRecord(rec)
		c.clearConservative(p)
	}
	c.pages = pages[:0]
}

// clearConservative clears the conservative bookmarks on p's own
// objects once nothing evicted points into their region (§3.4.2).
func (c *BC) clearConservative(p mem.PageID) {
	a := mem.PageAddr(p)
	if r, _, ok := c.regionAt(a); ok && c.incoming(r) == 0 {
		c.objectsIn(a, a+mem.PageSize, c.unbookmark)
	}
}
