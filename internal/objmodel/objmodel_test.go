package objmodel

import (
	"testing"
	"testing/quick"

	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/vmm"
)

// space is the address space of a process on a machine with memory to
// spare: pages fault in on first touch and stay.
func space() *mem.Space {
	return vmm.New(vmm.NewClock(), vmm.MinPhysBytes, vmm.DefaultCosts()).NewProc("test", 16*mem.PageSize).Space()
}

func TestStatusBitsIndependent(t *testing.T) {
	s := space()
	o := Ref(mem.PageSize)
	ClearStatus(s, o)

	SetBookmark(s, o)
	if !Bookmarked(s, o) {
		t.Fatal("bookmark not set")
	}
	SetMark(s, o, 7)
	if !Marked(s, o, 7) || Marked(s, o, 8) {
		t.Fatal("mark epoch wrong")
	}
	if !Bookmarked(s, o) {
		t.Fatal("SetMark clobbered bookmark")
	}
	ClearBookmark(s, o)
	if Bookmarked(s, o) {
		t.Fatal("bookmark not cleared")
	}
	if !Marked(s, o, 7) {
		t.Fatal("ClearBookmark clobbered mark")
	}
}

func TestForwarding(t *testing.T) {
	s := space()
	o := Ref(mem.PageSize)
	dst := Ref(3 * mem.PageSize)
	ClearStatus(s, o)
	SetBookmark(s, o)
	if Forwarded(s, o) {
		t.Fatal("fresh object forwarded")
	}
	Forward(s, o, dst)
	if !Forwarded(s, o) {
		t.Fatal("not forwarded")
	}
	if got := ForwardAddr(s, o); got != dst {
		t.Fatalf("ForwardAddr = %#x, want %#x", got, dst)
	}
	if !Bookmarked(s, o) {
		t.Fatal("Forward clobbered bookmark")
	}
}

func TestForwardRoundTripProperty(t *testing.T) {
	s := space()
	o := Ref(mem.PageSize)
	f := func(rawDst uint16, epoch uint16) bool {
		dst := Ref(mem.PageSize + mem.Addr(rawDst)*mem.WordSize)
		ClearStatus(s, o)
		SetMark(s, o, uint32(epoch))
		Forward(s, o, dst)
		return ForwardAddr(s, o) == dst && Marked(s, o, uint32(epoch))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTypeWord(t *testing.T) {
	s := space()
	o := Ref(mem.PageSize)
	SetTypeWord(s, o, 42, 1000)
	if TypeID(s, o) != 42 {
		t.Fatalf("TypeID = %d", TypeID(s, o))
	}
	if ArrayLen(s, o) != 1000 {
		t.Fatalf("ArrayLen = %d", ArrayLen(s, o))
	}
}

func TestTypeTable(t *testing.T) {
	tb := NewTable()
	node := tb.Scalar("node", 4, 0, 2)
	arr := tb.Array("refs", true)
	data := tb.Array("bytes", false)

	if node.TotalBytes(0) != HeaderBytes+4*mem.WordSize {
		t.Fatalf("scalar TotalBytes = %d", node.TotalBytes(0))
	}
	if arr.TotalBytes(10) != HeaderBytes+10*mem.WordSize {
		t.Fatalf("array TotalBytes = %d", arr.TotalBytes(10))
	}
	if node.NumRefSlots(0) != 2 || arr.NumRefSlots(5) != 5 || data.NumRefSlots(5) != 0 {
		t.Fatal("NumRefSlots wrong")
	}
	o := Ref(mem.PageSize)
	if node.RefSlotAddr(o, 1) != Payload(o)+2*mem.WordSize {
		t.Fatal("scalar RefSlotAddr wrong")
	}
	if arr.RefSlotAddr(o, 3) != Payload(o)+3*mem.WordSize {
		t.Fatal("array RefSlotAddr wrong")
	}

	s := space()
	SetTypeWord(s, o, node.ID, 0)
	got, n := tb.TypeOf(s, o)
	if got != node || n != 0 {
		t.Fatal("TypeOf wrong")
	}
}

func TestTypeTableValidation(t *testing.T) {
	tb := NewTable()
	for name, fn := range map[string]func(){
		"descending ptr map": func() { tb.Scalar("x", 4, 2, 1) },
		"out of range field": func() { tb.Scalar("x", 4, 4) },
		"negative size":      func() { tb.Scalar("x", -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestSizeClassCount(t *testing.T) {
	c := BuildClasses()
	// Paper: one class per size up to 64 bytes, 37 larger classes.
	small := (SmallCutoff-HeaderBytes)/mem.WordSize + 1
	if c.Len() != small+LargerClasses {
		t.Fatalf("got %d classes, want %d small + %d larger", c.Len(), small, LargerClasses)
	}
}

func TestSizeClassInvariants(t *testing.T) {
	c := BuildClasses()
	prev := 0
	for i := 0; i < c.Len(); i++ {
		cl := c.Class(i)
		if cl.BlockSize <= prev {
			t.Fatalf("class %d not strictly increasing: %d after %d", i, cl.BlockSize, prev)
		}
		if cl.BlockSize%mem.WordSize != 0 {
			t.Fatalf("class %d block size %d not word aligned", i, cl.BlockSize)
		}
		if cl.Blocks < 2 {
			t.Fatalf("class %d has %d blocks per superpage", i, cl.Blocks)
		}
		if cl.Blocks*cl.BlockSize > SuperUsableBytes {
			t.Fatalf("class %d overflows superpage", i)
		}
		// External fragmentation bound (paper: 25%).
		if w := float64(cl.ExternalWaste()) / SuperUsableBytes; w > 0.25 {
			t.Fatalf("class %d external waste %.0f%% exceeds 25%%", i, w*100)
		}
		prev = cl.BlockSize
	}
}

func TestSizeClassFragmentationBounds(t *testing.T) {
	c := BuildClasses()
	// Worst-case internal fragmentation: an object one word larger than
	// the previous class must waste <15% of its block, except in the five
	// largest classes where up to ~34% is allowed (paper §3).
	for i := 1; i < c.Len(); i++ {
		cl := c.Class(i)
		minObj := c.Class(i-1).BlockSize + mem.WordSize
		frag := float64(cl.BlockSize-minObj) / float64(cl.BlockSize)
		limit := 0.15
		if i >= c.Len()-5 {
			limit = 0.34
		}
		if frag > limit {
			t.Errorf("class %d (block %d): worst-case frag %.1f%% > %.0f%%",
				i, cl.BlockSize, frag*100, limit*100)
		}
	}
}

func TestForSize(t *testing.T) {
	c := BuildClasses()
	// Exact small sizes map to their own class.
	for sz := HeaderBytes; sz <= SmallCutoff; sz += mem.WordSize {
		cl, ok := c.ForSize(sz)
		if !ok || cl.BlockSize != sz {
			t.Fatalf("ForSize(%d) = %+v, %v", sz, cl, ok)
		}
	}
	// Objects over the largest class go to the LOS.
	if _, ok := c.ForSize(c.LargestBlock() + 1); ok {
		t.Fatal("oversized object got a class")
	}
	if _, ok := c.ForSize(c.LargestBlock()); !ok {
		t.Fatal("largest block has no class")
	}
	// The paper's LOS threshold is about half a superpage minus metadata.
	if c.LargestBlock() < SuperUsableBytes/2-mem.WordSize || c.LargestBlock() > SuperUsableBytes/2 {
		t.Fatalf("LargestBlock = %d, want about %d", c.LargestBlock(), SuperUsableBytes/2)
	}
}

func TestForSizeProperty(t *testing.T) {
	c := BuildClasses()
	// Property: every size in range gets the smallest class that fits it.
	f := func(raw uint16) bool {
		sz := int(raw)
		if sz > c.LargestBlock() {
			sz = sz % c.LargestBlock()
		}
		if sz < HeaderBytes {
			sz = HeaderBytes
		}
		cl, ok := c.ForSize(sz)
		if !ok {
			return false
		}
		if cl.BlockSize < sz {
			return false
		}
		// Smallest fitting class: previous class must be too small.
		return cl.Index == 0 || c.Class(cl.Index-1).BlockSize < sz
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
