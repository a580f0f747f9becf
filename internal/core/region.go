package core

import (
	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/objmodel"
)

// region is the unit of BC's bookmark books (§3.4): a superpage, whose
// incoming-bookmark count is in its header (a charged access), or a large
// object, whose count is beside the LOS run table (free). A page that
// leaves raises the count of every region it points into; its reload
// lowers them, and a region whose count reaches zero loses its bookmarks.
// The functions here are the only bookkeeping that tells the spaces apart.
type region struct {
	large objmodel.Ref // the large object; mem.Nil for a superpage
	super int          // the superpage's index
}

// key is r in one word: superpage indices lie below every LOS address.
func (r region) key() mem.Addr { return r.large | mem.Addr(r.super) }

// regionAt is the one dispatch from an address to its region (the
// superpage covering a, in use or not, or the large object whose run
// covers a) and the object a reference to a names.
func (c *BC) regionAt(a mem.Addr) (region, objmodel.Ref, bool) {
	switch {
	case c.SS.Contains(a):
		return region{super: c.SS.SuperIndex(a)}, a, true
	case c.LOS.Contains(a):
		if o, ok := c.LOS.ObjectContaining(a); ok {
			return region{large: o}, o, true
		}
	}
	return region{}, mem.Nil, false
}

// incoming returns r's incoming-bookmark count; a released superpage's
// header is not read.
func (c *BC) incoming(r region) int {
	switch {
	case r.large != mem.Nil:
		return c.LOS.Incoming(r.large)
	case c.SS.Used(r.super):
		return c.SS.Incoming(r.super)
	}
	return 0
}

// raiseIncoming bumps r's count.
func (c *BC) raiseIncoming(r region) {
	if r.large != mem.Nil {
		c.LOS.IncIncoming(r.large)
	} else {
		c.SS.IncIncoming(r.super)
	}
}

// lowerIncoming decrements r's count and reports whether it reached zero;
// a released superpage is left alone.
func (c *BC) lowerIncoming(r region) bool {
	if r.large != mem.Nil {
		return c.LOS.DecIncoming(r.large) == 0
	}
	return c.SS.Used(r.super) && c.SS.DecIncoming(r.super) == 0
}

// resetIncoming zeroes r's count, writing a superpage header only if it is
// not zero already.
func (c *BC) resetIncoming(r region) {
	switch {
	case r.large != mem.Nil:
		c.LOS.SetIncoming(r.large, 0)
	case c.SS.Incoming(r.super) > 0:
		c.SS.SetIncoming(r.super, 0)
	}
}

// objectsIn visits the objects overlapping [start, end), a page, a card or
// a whole region: the allocated blocks of start's superpage if it is in
// use, or the large object whose run covers start.
func (c *BC) objectsIn(start, end mem.Addr, fn func(o objmodel.Ref)) {
	switch r, _, ok := c.regionAt(start); {
	case !ok:
	case r.large != mem.Nil:
		fn(r.large)
	case c.SS.Used(r.super):
		c.SS.ObjectsOverlapping(r.super, start, end, fn)
	}
}

// objectsOf visits every object of r.
func (c *BC) objectsOf(r region, fn func(o objmodel.Ref)) {
	start := r.large
	if start == mem.Nil {
		start = c.SS.SuperBase(r.super)
	}
	c.objectsIn(start, start+mem.SuperSize, fn)
}

// straddlingEvicted counts the objects overlapping page p whose extent
// reaches a page marked evicted, reading only metadata that stays
// resident: the superpage's class (read even once it is released) or the
// run table.
func (c *BC) straddlingEvicted(p mem.PageID) (n int) {
	a := mem.PageAddr(p)
	r, _, ok := c.regionAt(a)
	extent := c.LOS.PagesOf
	if ok && r.large == mem.Nil {
		cl, _, _ := c.SS.ClassOf(r.super)
		extent = func(o objmodel.Ref) (mem.PageID, mem.PageID) { return mem.PagesIn(o, uint64(cl.BlockSize)) }
	}
	c.objectsIn(a, a+mem.PageSize, func(o objmodel.Ref) {
		if c.anyEvicted(extent(o)) {
			n++
		}
	})
	return n
}

// bookmarkRoot reports whether r's resident bookmarked objects are trace
// roots (§3.4.1), for the bookmark-root scan and compaction's forced
// targets: any region with incoming bookmarks, and while the books hold a
// superpage with an evicted page. A large object with an evicted page is
// not: its eviction scanned every resident slot, so its children carry
// bookmarks and counts of their own.
func (c *BC) bookmarkRoot(r region) bool {
	return c.incoming(r) > 0 || r.large == mem.Nil && c.bookmarksAreRoots() && c.anyEvicted(c.SS.PagesOf(r.super))
}

// forEachRegion visits every region in use: superpages by index (reading
// each header, as SS.ForEachSuper does) and large objects by address, the
// large objects first if largeFirst. The order is simulated behaviour: the
// bookmark-root scan has always taken superpages first, the fail-safe
// large objects.
func (c *BC) forEachRegion(largeFirst bool, fn func(r region)) {
	large := func() { c.LOS.ForEachObject(func(o objmodel.Ref) { fn(region{large: o}) }) }
	if largeFirst {
		large()
	}
	c.SS.ForEachSuper(func(idx int, _ objmodel.SizeClass, _ objmodel.Kind) { fn(region{super: idx}) })
	if !largeFirst {
		large()
	}
}
