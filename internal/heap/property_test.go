package heap

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/objmodel"
)

// TestBumpObjectsDisjointProperty: randomly sized bump allocations are
// word-aligned, contiguous, in-bounds, and non-overlapping.
func TestBumpObjectsDisjointProperty(t *testing.T) {
	tb := objmodel.NewTable()
	arr := tb.Array("a", false)
	f := func(sizes []uint16) bool {
		s := testSpace(1 << 22)
		l := NewLayout(1 << 20)
		b := NewBumpSpace(s, l.Bump0Base, l.Bump0End)
		var prevEnd mem.Addr = l.Bump0Base
		for _, raw := range sizes {
			n := int(raw % 500)
			o := b.Alloc(arr, n)
			if o == mem.Nil {
				return b.UsedBytes() > 0 // only acceptable when truly full
			}
			if o != prevEnd {
				return false // not contiguous
			}
			if o%mem.WordSize != 0 {
				return false
			}
			prevEnd = o + mem.Addr(mem.RoundUpWord(uint64(arr.TotalBytes(n))))
			if prevEnd > b.Frontier() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestLOSRunsDisjointProperty: random alloc/free sequences never produce
// overlapping runs and keep page accounting exact.
func TestLOSRunsDisjointProperty(t *testing.T) {
	tb := objmodel.NewTable()
	arr := tb.Array("a", false)
	rng := rand.New(rand.NewSource(11))
	s := testSpace(1 << 24)
	los := NewLOS(s, mem.PageSize*16, mem.PageSize*1040) // 1024 pages
	live := map[objmodel.Ref]int{}                       // obj -> pages

	overlap := func(a objmodel.Ref, ap int, b objmodel.Ref, bp int) bool {
		aEnd := a + mem.Addr(ap)*mem.PageSize
		bEnd := b + mem.Addr(bp)*mem.PageSize
		return a < bEnd && b < aEnd
	}
	for step := 0; step < 3000; step++ {
		if rng.Intn(3) > 0 || len(live) == 0 {
			words := (rng.Intn(5*mem.PageSize) + mem.PageSize) / mem.WordSize
			o := los.Alloc(arr, words)
			if o == mem.Nil {
				continue
			}
			pages := int(mem.RoundUpPage(uint64(arr.TotalBytes(words))) / mem.PageSize)
			for prev, pp := range live {
				if overlap(o, pages, prev, pp) {
					t.Fatalf("step %d: run %#x overlaps %#x", step, o, prev)
				}
			}
			live[o] = pages
		} else {
			for o := range live {
				los.Free(o)
				delete(live, o)
				break
			}
		}
		want := 0
		for _, pp := range live {
			want += pp
		}
		if los.UsedPages() != want {
			t.Fatalf("step %d: UsedPages=%d, live=%d", step, los.UsedPages(), want)
		}
		if los.Objects() != len(live) {
			t.Fatalf("step %d: Objects=%d, live=%d", step, los.Objects(), len(live))
		}
	}
}

// TestSuperSpaceAllocFreeProperty: random allocation and freeing across
// several classes preserves block accounting and never double-allocates.
func TestSuperSpaceAllocFreeProperty(t *testing.T) {
	s, l := testSetup(8 << 20)
	tb := objmodel.NewTable()
	node := tb.Scalar("n", 4, 0, 1)
	ss := NewSuperSpace(s, classes, l.MatureBase, l.MatureEnd)
	rng := rand.New(rand.NewSource(5))
	cl, _ := classes.ForSize(node.TotalBytes(0))

	live := map[objmodel.Ref]bool{}
	for step := 0; step < 5000; step++ {
		if rng.Intn(3) > 0 || len(live) == 0 {
			o := ss.Alloc(node, 0, cl)
			if o == mem.Nil {
				if ss.AcquireSuper(cl, node.Kind) < 0 {
					continue
				}
				o = ss.Alloc(node, 0, cl)
			}
			if live[o] {
				t.Fatalf("step %d: block %#x allocated twice", step, o)
			}
			live[o] = true
		} else {
			for o := range live {
				ss.FreeBlock(o)
				delete(live, o)
				break
			}
		}
	}
	// Total allocated blocks across superpages equals the live set.
	total := 0
	ss.ForEachSuper(func(idx int, _ objmodel.SizeClass, _ objmodel.Kind) {
		total += ss.Allocated(idx)
	})
	if total != len(live) {
		t.Fatalf("allocated %d blocks, live %d", total, len(live))
	}
}

// checkEmptyWord compares a space's EmptyWord against the space's own
// per-page answer for every page of the address space: the bit must be
// set exactly for the region's empty pages, and clear outside the region.
func checkEmptyWord(t *testing.T, s *mem.Space, step int, emptyWord func(wi int) uint64, empty func(p mem.PageID) bool) {
	t.Helper()
	for wi := 0; wi <= s.Pages()>>6; wi++ {
		w := emptyWord(wi)
		for b := 0; b < 64; b++ {
			p := mem.PageID(wi<<6 + b)
			want := int(p) < s.Pages() && empty(p)
			if got := w>>uint(b)&1 != 0; got != want {
				t.Fatalf("step %d: page %d: EmptyWord says %v, per-page answer is %v", step, p, got, want)
			}
		}
	}
}

// TestEmptyWordAgreesPerPage drives each space through random
// allocation and release and checks the empty pages it publishes a word
// at a time (what BC's eviction handler intersects, §3.4.3) against its
// per-page accessors. The layout's regions start 4 pages into a bitmap
// word, so every region boundary is mid-word.
func TestEmptyWordAgreesPerPage(t *testing.T) {
	_, node, _, arr := testTypes()
	rng := rand.New(rand.NewSource(19))

	t.Run("bump", func(t *testing.T) {
		s, l := testSetup(1 << 20)
		b := NewBumpSpace(s, l.Bump0Base, l.Bump0End)
		b.SetBudget(200 * mem.PageSize) // the pages past the budget are empty too
		for step := 0; step < 400; step++ {
			if b.AllocRaw(rng.Intn(3*mem.PageSize)) == mem.Nil || rng.Intn(40) == 0 {
				b.Reset()
			}
			checkEmptyWord(t, s, step, b.EmptyWord, func(p mem.PageID) bool {
				return b.Contains(mem.PageAddr(p)) && mem.PageAddr(p) >= b.Frontier()
			})
		}
	})

	t.Run("super", func(t *testing.T) {
		s, l := testSetup(1 << 20)
		ss := NewSuperSpace(s, classes, l.MatureBase, l.MatureEnd)
		var live []objmodel.Ref // one block per acquired superpage
		for step := 0; step < 400; step++ {
			if rng.Intn(3) > 0 || len(live) == 0 {
				if idx := ss.AcquireSuper(classes.Class(rng.Intn(classes.Len())), node.Kind); idx >= 0 {
					live = append(live, ss.AllocInSuper(idx, node, 0))
				}
			} else {
				i := rng.Intn(len(live))
				if !ss.FreeBlock(live[i]) {
					t.Fatalf("step %d: freeing the only block did not release the superpage", step)
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			checkEmptyWord(t, s, step, ss.EmptyWord, func(p mem.PageID) bool {
				a := mem.PageAddr(p)
				return ss.Contains(a) && !ss.Used(ss.SuperIndex(a))
			})
		}
		if ss.InUseSupers() != len(live) {
			t.Fatalf("%d superpages in use, %d live", ss.InUseSupers(), len(live))
		}
	})

	t.Run("los", func(t *testing.T) {
		s, l := testSetup(1 << 20)
		los := NewLOS(s, l.LOSBase, l.LOSEnd)
		var live []objmodel.Ref
		for step := 0; step < 400; step++ {
			if rng.Intn(3) > 0 || len(live) == 0 {
				if o := los.Alloc(arr, (rng.Intn(5*mem.PageSize)+mem.PageSize)/mem.WordSize); o != mem.Nil {
					live = append(live, o)
				}
			} else {
				i := rng.Intn(len(live))
				los.Free(live[i])
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			checkEmptyWord(t, s, step, los.EmptyWord, los.IsFreePage)
		}
	})
}
