package core

import (
	"fmt"

	"bookmarkgc/internal/heap"
	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/objmodel"
	"bookmarkgc/internal/vmm"
)

// CheckInvariants validates BC's structural invariants without touching
// any page or charging the clock: heap words and superpage headers are
// read through PeekWord, and everything else it reads is host-side
// bookkeeping (bit arrays, the VMM's page table, the spaces' own books).
// A run with the check hooked after every collection is the run without
// it. It returns the first violation found, or nil. It is meant for tests
// and debugging; a production build would compile it out.
//
// Checked invariants:
//
//  1. superpage accounting: each header is in use exactly when the
//     space's books say so, its allocated-block count matches its
//     bitmap, and every allocated block holds a plausible object header;
//  2. bookmark books balance: each in-use superpage's incoming counter
//     equals the number of processed pages whose records name it, and
//     likewise for large objects;
//  3. page-state agreement: every page BC believes evicted is Evicted or
//     (pending eviction) Resident in the VMM, and processed pages are a
//     subset of evicted pages;
//  4. reachability: every object reachable from the roots or from a
//     bookmarked object (which a sweep keeps, marked or not) lies in a
//     valid allocation — nursery extent, allocated block of an in-use
//     superpage, or live large object — and carries a registered type,
//     so no edge leads into a free superpage or a free block;
//  5. empty-page words: for every page of the address space, each
//     space's EmptyWord bit — what the eviction handler's discardable
//     search intersects (§3.4.3) — equals that space's own per-page
//     answer, so no bit is set outside the space's region, and the
//     three spaces' words are disjoint; and the maintained resident-page
//     count equals the residency bit array's population;
//  6. a remembered miss is still a miss: while the change counters
//     giveDiscardables cached its last miss at have not moved, a search
//     that bypasses the cache finds no discardable page;
//  7. the allocator can find every free block it may use: each in-use
//     superpage with a free block whose pages pageOK accepts is on the
//     available list of its class and kind.
func (c *BC) CheckInvariants() error {
	hs := make([]heap.SuperHeader, c.SS.HighWater())
	for idx := range hs {
		hs[idx] = c.SS.PeekHeader(idx)
	}
	if err := c.checkSuperpages(hs); err != nil {
		return err
	}
	if err := c.checkBookBalance(hs); err != nil {
		return err
	}
	if err := c.checkPageStates(); err != nil {
		return err
	}
	if err := c.checkReachability(hs); err != nil {
		return err
	}
	if err := c.checkEmptyWords(); err != nil {
		return err
	}
	if err := c.checkCachedMiss(); err != nil {
		return err
	}
	return c.checkOffered(hs)
}

// peek reads a heap word without touching the page.
func (c *BC) peek(a mem.Addr) uint64 { return c.E.Space.PeekWord(a) }

// superBlocks visits every block of superpage idx, as its peeked header
// hs[idx] has it.
func (c *BC) superBlocks(hs []heap.SuperHeader, idx int, fn func(o objmodel.Ref, allocated bool)) {
	base := c.SS.SuperBase(idx)
	hs[idx].Blocks(base, base+mem.SuperSize, fn)
}

func (c *BC) checkSuperpages(hs []heap.SuperHeader) error {
	for idx := range hs {
		h := &hs[idx]
		if h.InUse != c.SS.Used(idx) {
			return fmt.Errorf("super %d: header says in use=%v, the space's books say %v", idx, h.InUse, c.SS.Used(idx))
		}
		if !h.InUse {
			continue
		}
		count := 0
		var err error
		c.superBlocks(hs, idx, func(o objmodel.Ref, allocated bool) {
			if !allocated || err != nil {
				return
			}
			count++
			_, id, n := objmodel.PeekHeader(c.E.Space, o)
			if int(id) >= c.E.Types.Len() || id < 0 {
				err = fmt.Errorf("super %d: block %#x has bad type id %d", idx, o, id)
				return
			}
			t := c.E.Types.Get(id)
			if t.Kind != h.Kind {
				err = fmt.Errorf("super %d: %s object %#x on %s superpage", idx, t.Kind, o, h.Kind)
			} else if t.TotalBytes(n) > h.Class.BlockSize {
				err = fmt.Errorf("super %d: object %#x (%dB) overflows %dB block",
					idx, o, t.TotalBytes(n), h.Class.BlockSize)
			}
		})
		if err != nil {
			return err
		}
		if count != h.Allocated {
			return fmt.Errorf("super %d: header says %d allocated, bitmap has %d", idx, h.Allocated, count)
		}
	}
	return nil
}

func (c *BC) checkBookBalance(hs []heap.SuperHeader) error {
	superRefs := map[int]int{}
	losRefs := map[objmodel.Ref]int{}
	for p, rec := range c.pageTargets {
		if !c.processed.Test(int(p)) {
			return fmt.Errorf("page %d has a target record but no processed bit", p)
		}
		for _, idx := range rec.supers {
			superRefs[int(idx)]++
		}
		for _, o := range rec.los {
			losRefs[o]++
		}
	}
	// Deferred records belong to pages that have already reloaded but
	// whose release waits on a straddling object's other pages; their
	// increments are still outstanding.
	for p, rec := range c.deferredTargets {
		if !c.straddlesEvicted(hs, p) {
			return fmt.Errorf("page %d has a deferred record but nothing straddling evicted pages", p)
		}
		for _, idx := range rec.supers {
			superRefs[int(idx)]++
		}
		for _, o := range rec.los {
			losRefs[o]++
		}
	}
	for idx := range hs {
		if got, want := hs[idx].Incoming, superRefs[idx]; hs[idx].InUse && got != want {
			return fmt.Errorf("super %d: incoming counter %d, records say %d", idx, got, want)
		}
	}
	for o, n := range c.losIncoming {
		if losRefs[o] != n {
			return fmt.Errorf("LOS object %#x: incoming %d, records say %d", o, n, losRefs[o])
		}
	}
	for o, n := range losRefs {
		if c.losIncoming[o] != n {
			return fmt.Errorf("LOS object %#x: records say %d, incoming map has %d", o, n, c.losIncoming[o])
		}
	}
	return nil
}

// straddlesEvicted is straddlingEvicted(p) > 0, read from peeked headers.
func (c *BC) straddlesEvicted(hs []heap.SuperHeader, p mem.PageID) bool {
	a := mem.PageAddr(p)
	switch {
	case c.SS.Contains(a):
		idx := c.SS.SuperIndex(a)
		if !c.SS.Used(idx) {
			return false
		}
		found := false
		hs[idx].Blocks(a, a+mem.PageSize, func(o objmodel.Ref, allocated bool) {
			found = found || allocated && c.anyEvicted(mem.PagesIn(o, uint64(hs[idx].Class.BlockSize)))
		})
		return found
	case c.LOS.Contains(a):
		if o, ok := c.LOS.ObjectContaining(a); ok {
			return c.anyEvicted(c.LOS.PagesOf(o))
		}
	}
	return false
}

func (c *BC) checkPageStates() error {
	for i := c.evicted.NextSet(0); i >= 0; i = c.evicted.NextSet(i + 1) {
		st := c.E.Proc.State(mem.PageID(i))
		// A page BC marked evicted is either truly evicted or still
		// resident awaiting eviction (relinquished/protected).
		if st == vmm.Fresh {
			return fmt.Errorf("page %d: BC says evicted, VMM says fresh", i)
		}
	}
	for i := c.processed.NextSet(0); i >= 0; i = c.processed.NextSet(i + 1) {
		if !c.evicted.Test(i) {
			return fmt.Errorf("page %d processed but not marked evicted", i)
		}
	}
	if got := c.evicted.Count(); got != c.evictedHeapPg {
		return fmt.Errorf("evicted count drift: bitmap %d, counter %d", got, c.evictedHeapPg)
	}
	return nil
}

// emptyPerPage is the per-page statement of "p holds no live data",
// asked of each space through its per-page accessors: a nursery-region
// page at or past the frontier, a page of an unassigned superpage, a
// free large-object page. It is the reference the word-at-a-time
// predicate (discardableWord) is checked against, here and in the
// differential test; the handler itself never calls it.
func (c *BC) emptyPerPage(p mem.PageID) (nursery, mature, los bool) {
	a := mem.PageAddr(p)
	return c.nursery.Contains(a) && a >= c.nursery.Frontier(),
		c.SS.Contains(a) && !c.SS.Used(c.SS.SuperIndex(a)),
		c.LOS.IsFreePage(p)
}

func (c *BC) checkEmptyWords() error {
	for wi := 0; wi < c.resident.Words(); wi++ {
		n, s, l := c.nursery.EmptyWord(wi), c.SS.EmptyWord(wi), c.LOS.EmptyWord(wi)
		if n&s|n&l|s&l != 0 {
			return fmt.Errorf("pages %d..%d: spaces publish overlapping empty pages (nursery %#x, mature %#x, LOS %#x)",
				wi<<6, wi<<6+63, n, s, l)
		}
		// Every bit of the word, including any past the last page of the
		// address space, where all three answers are false.
		for b := uint(0); b < 64; b++ {
			p := mem.PageID(wi<<6) + mem.PageID(b)
			wantN, wantS, wantL := c.emptyPerPage(p)
			for _, e := range [...]struct {
				space     string
				got, want bool
			}{{"nursery", n>>b&1 != 0, wantN}, {"mature", s>>b&1 != 0, wantS}, {"LOS", l>>b&1 != 0, wantL}} {
				if e.got != e.want {
					return fmt.Errorf("page %d: %s space publishes empty=%v, its per-page answer is %v",
						p, e.space, e.got, e.want)
				}
			}
		}
	}
	if got := c.resident.Count(); got != c.residentPg {
		return fmt.Errorf("resident count drift: bitmap %d, counter %d", got, c.residentPg)
	}
	return nil
}

// checkCachedMiss searches past the remembered miss while it is still
// being served. The excluded page lies past every bitmap word, so the
// search excludes nothing.
func (c *BC) checkCachedMiss() error {
	if !c.missCached || c.missAt != c.discardAdds() {
		return nil
	}
	if p := c.firstDiscardable(mem.PageID(c.resident.Words() * 64)); p >= 0 {
		return fmt.Errorf("page %d is discardable, but the eviction handler remembers a miss (change count %d)", p, c.missAt)
	}
	return nil
}

// checkReachability walks the object graph with peeks, from the roots
// and from every bookmarked object: a sweep keeps those whether the trace
// reached them or not, so their edges must hold as well.
func (c *BC) checkReachability(hs []heap.SuperHeader) error {
	seen := map[objmodel.Ref]bool{}
	var stack []objmodel.Ref
	push := func(o objmodel.Ref) error {
		if o == mem.Nil || seen[o] {
			return nil
		}
		if err := c.validObject(hs, o); err != nil {
			return err
		}
		seen[o] = true
		stack = append(stack, o)
		return nil
	}
	var err error
	c.Roots().ForEach(func(slot *mem.Addr) {
		if err == nil {
			err = push(*slot)
		}
	})
	bookmarked := func(o objmodel.Ref) {
		if err == nil && objmodel.PeekBookmarked(c.E.Space, o) {
			err = push(o)
		}
	}
	for idx := range hs {
		if hs[idx].InUse {
			c.superBlocks(hs, idx, func(o objmodel.Ref, allocated bool) {
				if allocated {
					bookmarked(o)
				}
			})
		}
	}
	c.LOS.ForEachObject(bookmarked)
	for err == nil && len(stack) > 0 {
		o := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		_, id, n := objmodel.PeekHeader(c.E.Space, o)
		t := c.E.Types.Get(id)
		for i := 0; i < t.NumRefSlots(n) && err == nil; i++ {
			if err = push(objmodel.Ref(c.peek(t.RefSlotAddr(o, i)))); err != nil {
				err = fmt.Errorf("slot %d of %#x: %w", i, o, err)
			}
		}
	}
	return err
}

// validObject verifies o is a live allocation in some space.
func (c *BC) validObject(hs []heap.SuperHeader, o objmodel.Ref) error {
	switch {
	case c.nursery.ContainsAllocated(o):
		// Bump region: any address below the frontier could be an object
		// start; the type check below is the real gate.
	case c.SS.Contains(o):
		idx := c.SS.SuperIndex(o)
		if !c.SS.Used(idx) {
			return fmt.Errorf("reachable object %#x on free superpage %d", o, idx)
		}
		switch start, allocated := hs[idx].BlockAt(o); {
		case !start:
			return fmt.Errorf("reachable object %#x is not a block start", o)
		case !allocated:
			return fmt.Errorf("reachable object %#x is a free block of superpage %d", o, idx)
		}
	case c.LOS.Contains(o):
		got, ok := c.LOS.ObjectContaining(o)
		if !ok || got != o {
			return fmt.Errorf("reachable object %#x is not a live large object", o)
		}
	default:
		return fmt.Errorf("reachable object %#x outside every space", o)
	}
	if _, id, _ := objmodel.PeekHeader(c.E.Space, o); id < 0 || int(id) >= c.E.Types.Len() {
		return fmt.Errorf("reachable object %#x has invalid type id %d", o, id)
	}
	return nil
}

// checkOffered is check 7. A superpage missing from its list while it has
// a usable free block is one Alloc never returns to: its blocks are lost
// until a sweep or a free lists it again.
func (c *BC) checkOffered(hs []heap.SuperHeader) error {
	for idx := range hs {
		h := &hs[idx]
		if !h.InUse || c.SS.Listed(idx, h.Class, h.Kind) {
			continue
		}
		usable := mem.Nil
		c.superBlocks(hs, idx, func(o objmodel.Ref, allocated bool) {
			if usable == mem.Nil && !allocated && !c.anyRefused(mem.PagesIn(o, uint64(h.Class.BlockSize))) {
				usable = o
			}
		})
		if usable != mem.Nil {
			return fmt.Errorf("super %d: free block %#x is usable, but the superpage is not on its available list", idx, usable)
		}
	}
	return nil
}

// anyRefused reports whether pageOK refuses any page of [first, last].
func (c *BC) anyRefused(first, last mem.PageID) bool {
	for p := first; p <= last; p++ {
		if !c.pageOK(p) {
			return true
		}
	}
	return false
}
