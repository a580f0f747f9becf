package heap

import (
	"testing"

	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/objmodel"
	"bookmarkgc/internal/vmm"
)

var classes = objmodel.BuildClasses()

// testSpace is the address space of a process on a machine with memory
// to spare: pages fault in on first touch and stay.
func testSpace(size uint64) *mem.Space {
	return vmm.New(vmm.NewClock(), max(2*size, vmm.MinPhysBytes), vmm.DefaultCosts()).NewProc("test", size).Space()
}

func testSetup(heapBytes uint64) (*mem.Space, Layout) {
	l := NewLayout(heapBytes)
	return testSpace(l.Total), l
}

func testTypes() (*objmodel.Table, *objmodel.Type, *objmodel.Type, *objmodel.Type) {
	tb := objmodel.NewTable()
	node := tb.Scalar("node", 4, 0, 1) // 2 ref fields + 2 data words
	refs := tb.Array("refs", true)
	bytes := tb.Array("bytes", false)
	return tb, node, refs, bytes
}

func TestLayoutRegionsDisjointAndAligned(t *testing.T) {
	l := NewLayout(8 << 20)
	if l.Bump0Base%mem.SuperSize != 0 || l.MatureBase%mem.SuperSize != 0 {
		t.Fatal("regions not superpage aligned")
	}
	if !(l.Bump0Base < l.Bump0End && l.Bump0End <= l.Bump1Base &&
		l.Bump1End <= l.MatureBase && l.MatureEnd <= l.LOSBase) {
		t.Fatalf("regions overlap: %v", l)
	}
	if l.Region(l.Bump0Base) != "bump0" || l.Region(l.MatureBase) != "mature" ||
		l.Region(l.LOSBase) != "los" || l.Region(0) != "outside" {
		t.Fatal("Region misclassifies")
	}
	if uint64(l.MatureEnd-l.MatureBase) < 16<<20 {
		t.Fatal("mature region lacks headroom")
	}
}

func TestBumpAllocAndWalk(t *testing.T) {
	s, l := testSetup(1 << 20)
	tb, node, refs, _ := testTypes()
	b := NewBumpSpace(s, l.Bump0Base, l.Bump0End)

	o1 := b.Alloc(node, 0)
	o2 := b.Alloc(refs, 10)
	if o1 == mem.Nil || o2 == mem.Nil {
		t.Fatal("alloc failed")
	}
	if o2 != o1+mem.Addr(node.TotalBytes(0)) {
		t.Fatalf("not contiguous: %#x then %#x", o1, o2)
	}
	ty, n := tb.TypeOf(s, o2)
	if ty != refs || n != 10 {
		t.Fatal("header misinitialized")
	}
	var seen []objmodel.Ref
	b.ForEachObject(tb, func(o objmodel.Ref) { seen = append(seen, o) })
	if len(seen) != 2 || seen[0] != o1 || seen[1] != o2 {
		t.Fatalf("walk = %v", seen)
	}
	if !b.ContainsAllocated(o1) || b.ContainsAllocated(b.Frontier()) {
		t.Fatal("ContainsAllocated wrong")
	}
}

func TestBumpBudgetAndReset(t *testing.T) {
	s, l := testSetup(1 << 20)
	_, node, _, _ := testTypes()
	b := NewBumpSpace(s, l.Bump0Base, l.Bump0End)
	b.SetBudget(mem.PageSize) // one page
	n := 0
	for b.Alloc(node, 0) != mem.Nil {
		n++
	}
	want := mem.PageSize / node.TotalBytes(0)
	if n != want {
		t.Fatalf("allocated %d objects in one page, want %d", n, want)
	}
	b.Reset()
	if b.UsedBytes() != 0 {
		t.Fatal("Reset incomplete")
	}
	if b.Alloc(node, 0) == mem.Nil {
		t.Fatal("alloc after reset failed")
	}
}

func TestBumpZeroesRecycledMemory(t *testing.T) {
	s, l := testSetup(1 << 20)
	_, node, _, _ := testTypes()
	b := NewBumpSpace(s, l.Bump0Base, l.Bump0End)
	o := b.Alloc(node, 0)
	s.WriteAddr(node.RefSlotAddr(o, 0), 0xdead00)
	b.Reset()
	o2 := b.Alloc(node, 0)
	if o2 != o {
		t.Fatal("expected same address after reset")
	}
	if got := s.ReadAddr(node.RefSlotAddr(o2, 0)); got != mem.Nil {
		t.Fatalf("recycled payload not zeroed: %#x", got)
	}
}

func TestSuperSpaceAllocFreeCycle(t *testing.T) {
	s, l := testSetup(4 << 20)
	tb, node, _, _ := testTypes()
	ss := NewSuperSpace(s, classes, l.MatureBase, l.MatureEnd)

	cl, ok := classes.ForSize(node.TotalBytes(0))
	if !ok {
		t.Fatal("no class for node")
	}
	if ss.Alloc(node, 0, cl) != mem.Nil {
		t.Fatal("alloc should fail before AcquireSuper")
	}
	idx := ss.AcquireSuper(cl, node.Kind)
	if idx < 0 {
		t.Fatal("AcquireSuper failed")
	}
	if ss.InUseSupers() != 1 || ss.UsedPages() != mem.SuperPages {
		t.Fatal("usage accounting wrong")
	}

	var objs []objmodel.Ref
	for {
		o := ss.Alloc(node, 0, cl)
		if o == mem.Nil {
			break
		}
		objs = append(objs, o)
	}
	if len(objs) != cl.Blocks {
		t.Fatalf("filled %d blocks, class says %d", len(objs), cl.Blocks)
	}
	// All objects live in the same superpage with proper headers.
	for _, o := range objs {
		if ss.SuperIndex(o) != idx {
			t.Fatal("object escaped its superpage")
		}
		ty, _ := tb.TypeOf(s, o)
		if ty != node {
			t.Fatal("bad header")
		}
	}
	// Free all blocks: superpage must become reassignable.
	for i, o := range objs {
		becameFree := ss.FreeBlock(o)
		if becameFree != (i == len(objs)-1) {
			t.Fatalf("becameFree=%v at block %d", becameFree, i)
		}
	}
	if ss.InUseSupers() != 0 {
		t.Fatal("superpage not released")
	}
	// Reassign to a different class.
	cl2 := classes.Class(classes.Len() - 1)
	idx2 := ss.AcquireSuper(cl2, objmodel.KindScalar)
	if idx2 != idx {
		t.Fatalf("free superpage not recycled: got %d want %d", idx2, idx)
	}
}

func TestSuperSpaceSweep(t *testing.T) {
	s, l := testSetup(4 << 20)
	_, node, _, _ := testTypes()
	ss := NewSuperSpace(s, classes, l.MatureBase, l.MatureEnd)
	cl, _ := classes.ForSize(node.TotalBytes(0))
	idx := ss.AcquireSuper(cl, node.Kind)
	var objs []objmodel.Ref
	for i := 0; i < 10; i++ {
		objs = append(objs, ss.Alloc(node, 0, cl))
	}
	epoch := uint32(1)
	// Mark even objects; bookmark object 1; leave the rest dead.
	for i, o := range objs {
		if i%2 == 0 {
			objmodel.SetMark(s, o, epoch)
		}
	}
	objmodel.SetBookmark(s, objs[1])

	freed, empty := ss.SweepSuper(idx, epoch)
	if empty {
		t.Fatal("superpage should not be empty")
	}
	if freed != 4 { // objects 3,5,7,9
		t.Fatalf("freed %d, want 4", freed)
	}
	if ss.Allocated(idx) != 6 {
		t.Fatalf("allocated = %d, want 6", ss.Allocated(idx))
	}
	// Bookmarked object survived even though unmarked (§3.4: bookmarked
	// objects are treated as live).
	count := 0
	ss.ForEachObjectIn(idx, func(o objmodel.Ref) {
		if o == objs[1] {
			count++
		}
	})
	if count != 1 {
		t.Fatal("bookmarked object was swept")
	}
}

func TestSuperSpaceIncomingCounter(t *testing.T) {
	s, l := testSetup(4 << 20)
	_, node, _, _ := testTypes()
	ss := NewSuperSpace(s, classes, l.MatureBase, l.MatureEnd)
	cl, _ := classes.ForSize(node.TotalBytes(0))
	idx := ss.AcquireSuper(cl, node.Kind)
	if ss.Incoming(idx) != 0 {
		t.Fatal("fresh superpage has incoming count")
	}
	ss.IncIncoming(idx)
	ss.IncIncoming(idx)
	if ss.Incoming(idx) != 2 {
		t.Fatalf("Incoming = %d", ss.Incoming(idx))
	}
	if got := ss.DecIncoming(idx); got != 1 {
		t.Fatalf("DecIncoming = %d", got)
	}
	ss.DecIncoming(idx)
	if got := ss.DecIncoming(idx); got != 0 {
		t.Fatal("DecIncoming must saturate at zero")
	}
}

func TestSuperSpaceResidencyFilter(t *testing.T) {
	s, l := testSetup(4 << 20)
	_, node, _, _ := testTypes()
	ss := NewSuperSpace(s, classes, l.MatureBase, l.MatureEnd)
	cl, _ := classes.ForSize(node.TotalBytes(0))
	idx := ss.AcquireSuper(cl, node.Kind)
	// Only the header page is "resident": no block may be allocated on
	// the remaining pages... except blocks that fit on the header page.
	hdrPage := ss.HeaderPage(idx)
	ss.SetResidencyFilter(func(p mem.PageID) bool { return p == hdrPage })
	for {
		o := ss.Alloc(node, 0, cl)
		if o == mem.Nil {
			break
		}
		if o.Page() != hdrPage {
			t.Fatalf("allocated block on non-resident page %d", o.Page())
		}
	}
}

func TestSuperSpaceKindSegregation(t *testing.T) {
	s, l := testSetup(4 << 20)
	_, node, refs, _ := testTypes()
	ss := NewSuperSpace(s, classes, l.MatureBase, l.MatureEnd)
	cl, _ := classes.ForSize(node.TotalBytes(0))
	ss.AcquireSuper(cl, objmodel.KindScalar)
	// Same size class, array kind: must not share the scalar superpage.
	if o := ss.Alloc(refs, 4, cl); o != mem.Nil {
		t.Fatal("array allocated into scalar superpage")
	}
	i2 := ss.AcquireSuper(cl, objmodel.KindArray)
	o := ss.Alloc(refs, 4, cl)
	if o == mem.Nil || ss.SuperIndex(o) != i2 {
		t.Fatal("array alloc failed after acquiring array superpage")
	}
}

func TestSuperSpaceExhaustion(t *testing.T) {
	s := testSpace(6 * mem.SuperSize)
	ss := NewSuperSpace(s, classes, mem.SuperSize, 3*mem.SuperSize)
	cl := classes.Class(0)
	if ss.AcquireSuper(cl, objmodel.KindScalar) < 0 {
		t.Fatal("first acquire failed")
	}
	if ss.AcquireSuper(cl, objmodel.KindScalar) < 0 {
		t.Fatal("second acquire failed")
	}
	if ss.AcquireSuper(cl, objmodel.KindScalar) >= 0 {
		t.Fatal("acquire beyond region should fail")
	}
}

func TestLOSAllocFreeAndSweep(t *testing.T) {
	s, l := testSetup(4 << 20)
	tb, _, _, _ := testTypes()
	big := tb.Array("big", false)
	los := NewLOS(s, l.LOSBase, l.LOSEnd)

	// 3 pages worth of payload.
	n := (3*mem.PageSize - objmodel.HeaderBytes) / mem.WordSize
	o1 := los.Alloc(big, n)
	o2 := los.Alloc(big, n)
	if o1 == mem.Nil || o2 == mem.Nil {
		t.Fatal("LOS alloc failed")
	}
	if los.UsedPages() != 6 || los.Objects() != 2 {
		t.Fatalf("usage = %d pages %d objects", los.UsedPages(), los.Objects())
	}
	f1, la1 := los.PagesOf(o1)
	if la1-f1+1 != 3 {
		t.Fatalf("run size = %d pages", la1-f1+1)
	}

	// Sweep with only o2 marked.
	objmodel.SetMark(s, o2, 9)
	freed, runs := los.Sweep(9, nil)
	if freed != 1 || len(runs) != 1 {
		t.Fatalf("Sweep freed %d", freed)
	}
	if los.Objects() != 1 || los.UsedPages() != 3 {
		t.Fatal("sweep accounting wrong")
	}
	// Freed pages are reusable.
	o3 := los.Alloc(big, n)
	if o3 != o1 {
		t.Fatalf("first-fit did not reuse freed run: %#x vs %#x", o3, o1)
	}
}

func TestLOSResidencyFilterSkipsEvicted(t *testing.T) {
	s, l := testSetup(4 << 20)
	tb, _, _, _ := testTypes()
	big := tb.Array("big", false)
	los := NewLOS(s, l.LOSBase, l.LOSEnd)
	n := (2*mem.PageSize - objmodel.HeaderBytes) / mem.WordSize
	o := los.Alloc(big, n)
	// Unmarked, but its page is "not resident": must survive the sweep.
	freed, _ := los.Sweep(5, func(mem.PageID) bool { return false })
	if freed != 0 {
		t.Fatal("swept an object on a non-resident page")
	}
	if los.runLen[los.at(o)] == 0 {
		t.Fatal("object vanished")
	}
}

func TestLOSFirstFitFragmentation(t *testing.T) {
	s := testSpace(mem.PageSize * 64)
	los := NewLOS(s, mem.PageSize*8, mem.PageSize*16) // 8 pages
	tb := objmodel.NewTable()
	big := tb.Array("big", false)
	one := (mem.PageSize - objmodel.HeaderBytes) / mem.WordSize
	three := (3*mem.PageSize - objmodel.HeaderBytes) / mem.WordSize

	a := los.Alloc(big, one)
	b := los.Alloc(big, three)
	c := los.Alloc(big, one)
	_ = c
	if a == mem.Nil || b == mem.Nil || c == mem.Nil {
		t.Fatal("allocs failed")
	}
	los.Free(b) // hole of 3 pages
	// A 4-page object cannot fit the hole; 3 remaining tail pages exist.
	four := (4*mem.PageSize - objmodel.HeaderBytes) / mem.WordSize
	if got := los.Alloc(big, four); got != mem.Nil {
		t.Fatalf("4-page alloc should fail, got %#x", got)
	}
	// A 3-page object slots exactly into the hole.
	d := los.Alloc(big, three)
	if d != b {
		t.Fatalf("hole not reused: %#x vs %#x", d, b)
	}
}
