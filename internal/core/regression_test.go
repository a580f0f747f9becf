package core

import (
	"testing"

	"bookmarkgc/internal/gc"
	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/vmm"
)

// TestChurnUnderPressureVariants is a regression test for two bugs found
// during bring-up: (1) the eviction handler triggering a moving
// collection outside a GC safepoint corrupted raw references the mutator
// held across operations; (2) skipping the incoming-counter increment for
// bookmark targets on already-evicted pages let conservative bookmarks be
// cleared too early. It churns linked lists under severe pressure in
// three configurations and verifies every list survives intact.
func TestChurnUnderPressureVariants(t *testing.T) {
	for _, mode := range []string{"resizeonly-nodiscard", "resizeonly", "bc"} {
		t.Run(mode, func(t *testing.T) {
			cfg := Config{}
			if mode != "bc" {
				cfg.ResizeOnly = true
			}
			if mode == "resizeonly-nodiscard" {
				cfg.debugNoDiscard = true
			}
			v, c, node, _, _ := newBC(t, 48, 10, cfg)
			head := buildList(c, node, 60000, 19)
			c.Collect(true)
			pressurize(v, 150)
			for round := 0; round < 3; round++ {
				tmp := buildList(c, node, 30000, uint64(round))
				checkList(t, c, tmp, 30000, uint64(round))
				c.Roots().Release(tmp)
			}
			checkList(t, c, head, 60000, 19)
		})
	}
}

// TestCompactionForwardsBookmarkedReferrers is the directed form of the
// fig4 failure (heap: FreeBlock on free superpage): with a page evicted,
// a compaction moves the child of a resident bookmarked object that only
// the evicted page still reaches. The copy pass must trace from the
// bookmarks as the census does, so the bookmarked object's slot follows
// the move instead of keeping the vacated block, whose superpage is
// freed.
func TestCompactionForwardsBookmarkedReferrers(t *testing.T) {
	_, c, node, refArr, dataArr := newBC(t, 512, 16, Config{})
	const arrLen = 30
	cl, small := c.E.Classes.ForSize(dataArr.TotalBytes(arrLen))
	if _, bigSmall := c.E.Classes.ForSize(refArr.TotalBytes(2 * mem.PageSize / mem.WordSize)); !small || bigSmall {
		t.Fatal("size classes changed: the arrays must be small and the referrer large")
	}
	// One superpage of the arrays' class, full; the child opens a second.
	fill := make([]int, cl.Blocks)
	for i := range fill {
		fill[i] = c.Roots().Add(c.Alloc(dataArr, arrLen))
	}
	c.Collect(true)
	parent, child := c.Alloc(node, 0), c.Alloc(dataArr, arrLen)
	c.WriteRef(parent, 0, child)
	big := c.Alloc(refArr, 2*mem.PageSize/mem.WordSize) // a large object: pages of its own
	c.WriteRef(big, 0, parent)
	parentSlot, childSlot, bigSlot := c.Roots().Add(parent), c.Roots().Add(child), c.Roots().Add(big)
	c.Collect(true)
	parent, big = c.Roots().Get(parentSlot), c.Roots().Get(bigSlot)
	if c.SS.SuperIndex(c.Roots().Get(childSlot)) == c.SS.SuperIndex(c.Roots().Get(fill[0])) {
		t.Fatal("setup: the child shares the full superpage")
	}

	// Evict the referrer's first page: parent is bookmarked, and only the
	// evicted page reaches it. Half the full superpage becomes garbage, so
	// the compaction moves the child there.
	c.processAndEvict(big.Page())
	c.Roots().Release(parentSlot)
	c.Roots().Release(bigSlot)
	for i := 0; i < len(fill); i += 2 {
		c.Roots().Release(fill[i])
	}
	oldChild := c.Roots().Get(childSlot)
	c.compact()

	newChild := c.Roots().Get(childSlot)
	if newChild == oldChild {
		t.Fatal("setup: the compaction did not move the child")
	}
	if got := c.ReadRef(parent, 0); got != newChild {
		t.Fatalf("bookmarked object %#x points at %#x, the child moved from there to %#x", parent, got, newChild)
	}
}

// TestRefusedSuperpageIsOfferedAgain: the allocator drops a superpage
// whose free blocks all sit on pages BC's residency filter refuses. It
// must be offered again as soon as the filter accepts one of them —
// when the page reloads, and when the books are invalidated and every
// page is accepted — or its free blocks are lost to allocation (fig4 at
// scale 0.02, seed 65, ran out of memory that way).
func TestRefusedSuperpageIsOfferedAgain(t *testing.T) {
	for _, how := range []string{"reload", "invalidate"} {
		t.Run(how, func(t *testing.T) {
			_, c, node, _, _ := newBC(t, 512, 16, Config{})
			cl, _ := c.E.Classes.ForSize(node.TotalBytes(0))
			slots := make([]int, cl.Blocks)
			for i := range slots {
				slots[i] = c.Roots().Add(c.Alloc(node, 0))
			}
			c.Collect(true)
			idx := c.SS.SuperIndex(c.Roots().Get(slots[0]))
			_, last := c.SS.PagesOf(idx)
			// Free every block that reaches the superpage's last page, then
			// evict that page: the superpage's only free blocks are refused.
			for _, s := range slots {
				o := c.Roots().Get(s)
				if c.SS.SuperIndex(o) != idx {
					t.Fatal("setup: the objects span two superpages")
				}
				if (o + mem.Addr(cl.BlockSize) - 1).Page() == last {
					c.Roots().Release(s)
				}
			}
			c.Collect(true)
			c.processAndEvict(last)
			if o := c.SS.Alloc(node, 0, cl); o != mem.Nil || c.SS.Listed(idx, cl, node.Kind) {
				t.Fatalf("setup: allocated %#x, or kept the superpage listed, with its free blocks refused", o)
			}

			if how == "reload" {
				c.reloadBooks(last)
			} else {
				c.invalidateBooks()
			}
			if !c.SS.Listed(idx, cl, node.Kind) {
				t.Fatal("the superpage was not offered again")
			}
			if o := c.SS.Alloc(node, 0, cl); c.SS.SuperIndex(o) != idx || (o+mem.Addr(cl.BlockSize)-1).Page() != last {
				t.Fatalf("allocated %#x, want a block reaching page %d", o, last)
			}
		})
	}
}

// TestCompactionMovesObjectsOffEvictedPagesWithoutBooks: while the books
// are invalid every trace touches evicted pages, so compaction can rewrite
// every pointer and must densify superpages with evicted pages like any
// others. It used to keep each of them in place as a forced target: fig4
// at scale 0.02, seed 72, ran out of memory after the fail-safe with most
// superpages half empty. Here the books are invalid as the fail-safe
// leaves them, and each superpage's last page, which holds no object and
// so is touched by no trace, is evicted.
func TestCompactionMovesObjectsOffEvictedPagesWithoutBooks(t *testing.T) {
	v, c, node, _, _ := newBC(t, 64, 16, Config{})
	cl, _ := c.E.Classes.ForSize(node.TotalBytes(0))
	slots := make([]int, 3*cl.Blocks)
	for i := range slots {
		o := c.Alloc(node, 0)
		c.WriteData(o, 2, uint64(i))
		slots[i] = c.Roots().Add(o)
	}
	c.Collect(true)
	// Keep one node in four, none reaching its superpage's last page:
	// they fit in one superpage.
	kept := map[int]uint64{}
	supers := map[int]bool{}
	for i, s := range slots {
		o := c.Roots().Get(s)
		idx := c.SS.SuperIndex(o)
		if _, last := c.SS.PagesOf(idx); i%4 == 0 && (o+mem.Addr(cl.BlockSize)-1).Page() != last {
			kept[s] = uint64(i)
			supers[idx] = true
		} else {
			c.Roots().Release(s)
		}
	}
	c.Collect(true)
	c.invalidateBooks()
	var gone []mem.PageID
	for idx := range supers {
		_, last := c.SS.PagesOf(idx)
		c.noteEvicted(last)
		gone = append(gone, last)
	}
	c.E.Proc.Relinquish(gone)
	v.Pin(v.FreeFrames())
	v.Unpin(v.PinnedFrames())
	for _, p := range gone {
		if c.E.Proc.State(p) != vmm.Evicted {
			t.Fatalf("setup: page %d was not evicted", p)
		}
	}

	c.compact()
	if n := c.SS.InUseSupers(); len(supers) < 2 || n != 1 {
		t.Fatalf("%d superpages in use after the compaction, from %d: want 1", n, len(supers))
	}
	for s, want := range kept {
		if got := c.ReadData(c.Roots().Get(s), 2); got != want {
			t.Fatalf("node %d holds %d after the compaction", want, got)
		}
	}
}

// TestBCOutOfMemory verifies the configured heap is a hard ceiling: live
// data beyond it panics with ErrOutOfMemory after the whole escalation
// ladder (nursery, full, compaction, fail-safe) is exhausted.
func TestBCOutOfMemory(t *testing.T) {
	_, c, node, _, _ := newBC(t, 512, 2, Config{})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected ErrOutOfMemory")
		}
		if _, ok := r.(gc.ErrOutOfMemory); !ok {
			panic(r)
		}
	}()
	head := c.Roots().Add(c.Alloc(node, 0))
	for {
		o := c.Alloc(node, 0)
		c.WriteRef(o, 0, c.Roots().Get(head))
		c.Roots().Set(head, o)
	}
}
