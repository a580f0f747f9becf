package heap

import (
	"fmt"
	"slices"
	"testing"

	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/objmodel"
)

// walkerCheck compares one walk of a superpage with the peeked header:
// the walk must visit exactly the allocated blocks SuperHeader.Blocks
// reports for [start, end), in address order.
type walkerCheck func(what string, start, end mem.Addr, walk func(fn func(objmodel.Ref)))

// forEachWalkerCase is the superpage walker's table. The classes are the
// smallest (992 blocks, 16 bitmap words), a middle one whose blocks stop
// short of the superpage's end, and the largest (two blocks); each
// superpage is filled and then tested full and with every third block
// freed. body walks ranges of superpage idx and hands each to check.
func forEachWalkerCase(t *testing.T, body func(t *testing.T, ss *SuperSpace, idx int, check walkerCheck)) {
	t.Helper()
	mid := classes.Class(classes.Len() / 2)
	if mid.ExternalWaste() == 0 {
		t.Fatal("setup: the middle class's blocks reach the superpage's end")
	}
	for _, cl := range []objmodel.SizeClass{classes.Class(0), mid, classes.Class(classes.Len() - 1)} {
		for _, freeThird := range []bool{false, true} {
			t.Run(fmt.Sprintf("%dB/freeThird=%v", cl.BlockSize, freeThird), func(t *testing.T) {
				s, l := testSetup(4 << 20)
				obj := objmodel.NewTable().Scalar("obj", 0)
				ss := NewSuperSpace(s, classes, l.MatureBase, l.MatureEnd)
				idx := ss.AcquireSuper(cl, obj.Kind)
				for b := 0; b < cl.Blocks; b++ {
					ss.AllocInSuper(idx, obj, 0)
				}
				for b := 0; freeThird && b < cl.Blocks; b += 3 {
					ss.FreeBlock(ss.BlockAddr(idx, b, cl))
				}
				h := ss.PeekHeader(idx)
				body(t, ss, idx, func(what string, start, end mem.Addr, walk func(fn func(objmodel.Ref))) {
					t.Helper()
					var want, got []objmodel.Ref
					h.Blocks(start, end, func(b objmodel.Ref, allocated bool) {
						if allocated {
							want = append(want, b)
						}
					})
					walk(func(o objmodel.Ref) { got = append(got, o) })
					if !slices.Equal(got, want) {
						t.Fatalf("%s [%#x, %#x): visited %#x, want %#x", what, start, end, got, want)
					}
				})
			})
		}
	}
}

// TestObjectsOverlappingRange walks every 512-byte card (the header's
// included) with ObjectsOverlapping, and the whole superpage with
// ForEachObjectIn.
func TestObjectsOverlappingRange(t *testing.T) {
	const cardBytes = 512 // gc.CardBytes
	forEachWalkerCase(t, func(t *testing.T, ss *SuperSpace, idx int, check walkerCheck) {
		base := ss.SuperBase(idx)
		for a := base; a < base+mem.SuperSize; a += cardBytes {
			check("card", a, a+cardBytes, func(fn func(objmodel.Ref)) { ss.ObjectsOverlapping(idx, a, a+cardBytes, fn) })
		}
		check("superpage", base, base+mem.SuperSize, func(fn func(objmodel.Ref)) { ss.ForEachObjectIn(idx, fn) })
	})
}

// TestObjectsOverlappingPage walks every page of the superpage as the
// range [PageAddr(p), PageAddr(p)+PageSize), as the eviction scan does.
func TestObjectsOverlappingPage(t *testing.T) {
	forEachWalkerCase(t, func(t *testing.T, ss *SuperSpace, idx int, check walkerCheck) {
		first, last := ss.PagesOf(idx)
		for p := first; p <= last; p++ {
			a := mem.PageAddr(p)
			check("page", a, a+mem.PageSize, func(fn func(objmodel.Ref)) { ss.ObjectsOverlapping(idx, a, a+mem.PageSize, fn) })
		}
	})
}

// TestSuperSpaceObjectAt looks up the object at every word of the
// superpage as the one-word range [a, a+WordSize): the walk must yield
// the allocated block containing a, and nothing for a free block or the
// header.
func TestSuperSpaceObjectAt(t *testing.T) {
	forEachWalkerCase(t, func(t *testing.T, ss *SuperSpace, idx int, check walkerCheck) {
		base := ss.SuperBase(idx)
		for a := base; a < base+mem.SuperSize; a += mem.WordSize {
			check("word", a, a+mem.WordSize, func(fn func(objmodel.Ref)) { ss.ObjectsOverlapping(idx, a, a+mem.WordSize, fn) })
		}
	})
}

func TestAllocInSuperRespectsKindAndClass(t *testing.T) {
	s, l := testSetup(4 << 20)
	_, node, refs, _ := testTypes()
	ss := NewSuperSpace(s, classes, l.MatureBase, l.MatureEnd)
	cl, _ := classes.ForSize(node.TotalBytes(0))
	idx := ss.AcquireSuper(cl, objmodel.KindScalar)
	if o := ss.AllocInSuper(idx, node, 0); o == mem.Nil {
		t.Fatal("scalar alloc into scalar superpage failed")
	}
	// Arrays must be refused (kind mismatch).
	if o := ss.AllocInSuper(idx, refs, 2); o != mem.Nil {
		t.Fatal("array allocated into scalar superpage")
	}
	// Free superpage: refused.
	free := ss.AcquireSuper(cl, objmodel.KindScalar)
	ss.ForEachObjectIn(free, func(o objmodel.Ref) {})
	o := ss.AllocInSuper(free, node, 0)
	ss.FreeBlock(o) // empties it back to free
	if got := ss.AllocInSuper(free, node, 0); got != mem.Nil {
		t.Fatal("allocated into a released superpage")
	}
}

func TestFreeResidentBlocks(t *testing.T) {
	s, l := testSetup(4 << 20)
	_, node, _, _ := testTypes()
	ss := NewSuperSpace(s, classes, l.MatureBase, l.MatureEnd)
	cl, _ := classes.ForSize(node.TotalBytes(0))
	idx := ss.AcquireSuper(cl, node.Kind)
	if got := ss.FreeResidentBlocks(idx); got != cl.Blocks {
		t.Fatalf("fresh superpage free blocks = %d, want %d", got, cl.Blocks)
	}
	ss.Alloc(node, 0, cl)
	ss.Alloc(node, 0, cl)
	if got := ss.FreeResidentBlocks(idx); got != cl.Blocks-2 {
		t.Fatalf("free blocks = %d, want %d", got, cl.Blocks-2)
	}
	// With a residency filter excluding the last page, blocks there stop
	// counting.
	_, last := ss.PagesOf(idx)
	ss.SetResidencyFilter(func(p mem.PageID) bool { return p != last })
	if got := ss.FreeResidentBlocks(idx); got >= cl.Blocks-2 {
		t.Fatalf("filtered free blocks = %d, want fewer", got)
	}
}

func TestHighWater(t *testing.T) {
	s, l := testSetup(4 << 20)
	_, node, _, _ := testTypes()
	ss := NewSuperSpace(s, classes, l.MatureBase, l.MatureEnd)
	if ss.HighWater() != 0 {
		t.Fatal("fresh space has high water")
	}
	cl, _ := classes.ForSize(node.TotalBytes(0))
	ss.AcquireSuper(cl, node.Kind)
	ss.AcquireSuper(cl, node.Kind)
	if ss.HighWater() != 2 {
		t.Fatalf("HighWater = %d", ss.HighWater())
	}
}

func TestLOSObjectContainingAndIsFree(t *testing.T) {
	s, l := testSetup(4 << 20)
	tb, _, _, _ := testTypes()
	big := tb.Array("big", false)
	los := NewLOS(s, l.LOSBase, l.LOSEnd)
	n := (3*mem.PageSize - objmodel.HeaderBytes) / mem.WordSize
	o := los.Alloc(big, n)

	mid := o + 2*mem.PageSize // inside the run
	got, ok := los.ObjectContaining(mid)
	if !ok || got != o {
		t.Fatalf("ObjectContaining(%#x) = %#x, %v", mid, got, ok)
	}
	if _, ok := los.ObjectContaining(l.LOSEnd - mem.PageSize); ok {
		t.Fatal("found object in free space")
	}
	if _, ok := los.ObjectContaining(l.MatureBase); ok {
		t.Fatal("found object outside the region")
	}
	if los.IsFreePage(o.Page()) {
		t.Fatal("allocated page reported free")
	}
	if !los.IsFreePage((l.LOSEnd - mem.PageSize).Page()) {
		t.Fatal("free page not reported free")
	}
	if los.IsFreePage(l.MatureBase.Page()) {
		t.Fatal("out-of-region page reported free")
	}

	// o and runs of 1, 2 and 4 pages after it, the 2-page run freed: every
	// word of a live run finds its object, and no word of the freed run or
	// past the last object finds one.
	type run struct {
		o           objmodel.Ref
		first, last mem.PageID
	}
	runs := []run{{o: o}}
	for _, pages := range []int{1, 2, 4} {
		runs = append(runs, run{o: los.Alloc(big, (pages*mem.PageSize-objmodel.HeaderBytes)/mem.WordSize)})
	}
	for i := range runs {
		runs[i].first, runs[i].last = los.PagesOf(runs[i].o)
	}
	los.Free(runs[2].o)
	runs[2].o = mem.Nil
	end := runs[len(runs)-1].last + 1
	runs = append(runs, run{mem.Nil, end, end + 1})
	for _, r := range runs {
		for a := mem.PageAddr(r.first); a < mem.PageAddr(r.last+1); a += mem.WordSize {
			if got, ok := los.ObjectContaining(a); got != r.o || ok != (r.o != mem.Nil) {
				t.Fatalf("ObjectContaining(%#x) = %#x, %v; want %#x", a, got, ok, r.o)
			}
		}
	}
}
