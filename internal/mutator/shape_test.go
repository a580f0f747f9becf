package mutator

import (
	"testing"

	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/objmodel"
)

// TestShapeMatchesDeclaredTypes checks the rulebook against the types
// DeclareTypes registers: an allocation of each shape gets the type
// whose reference map, size and header say what the shape says, no data
// word is a reference slot, and work keeps to the data words but for
// the one named exception.
func TestShapeMatchesDeclaredTypes(t *testing.T) {
	env := testEnv(t, 8)
	ts := DeclareTypes(env)
	o := objmodel.Ref(0x10000) // any object address: only offsets matter
	for _, sh := range []Shape{
		NodeShape,
		{AllocDataArr, 1}, {AllocDataArr, 64},
		{AllocRefArr, 1}, {AllocRefArr, 12},
	} {
		if !sh.Valid() {
			t.Errorf("%v is not a valid allocation", sh)
		}
		ty, n := ts.TypeFor(sh)
		if got := ts.ShapeOf(ty, n); got != sh {
			t.Errorf("%v allocates a %s that reads back as %v", sh, ty.Name, got)
		}
		if ty.NumRefSlots(n) != sh.RefSlots() || ty.TotalBytes(n) != sh.Bytes() {
			t.Errorf("%v: %s has %d ref slots and %d bytes, the shape %d and %d",
				sh, ty.Name, ty.NumRefSlots(n), ty.TotalBytes(n), sh.RefSlots(), sh.Bytes())
		}
		ref := make(map[int]bool)
		for i := range ty.NumRefSlots(n) {
			ref[int((ty.RefSlotAddr(o, i)-objmodel.Payload(o))/mem.WordSize)] = true
		}
		for w := range sh.Words {
			if ref[w] == sh.InitOK(w) {
				t.Errorf("%v word %d: reference slot %v, data word %v", sh, w, ref[w], sh.InitOK(w))
			}
		}
	}
	node, _ := ts.TypeFor(NodeShape)
	if node.PtrFields[0] != 0 || node.PtrFields[1] != 1 {
		t.Errorf("node references at words %v, want 0 and 1", node.PtrFields)
	}
	for _, sh := range []Shape{{AllocNode, 3}, {AllocDataArr, 0}, {AllocRefArr, 0}, {3, 4}} {
		if sh.Valid() {
			t.Errorf("%v is a valid allocation", sh)
		}
	}
	if other := objmodel.NewTable().Array("other", false); ts.ShapeOf(other, 4).Valid() {
		t.Error("a type DeclareTypes did not register has a valid shape")
	}
	// Work may touch a word that holds no integer in one place only:
	// element 0 of a reference array.
	for _, sh := range []Shape{NodeShape, {AllocDataArr, 8}} {
		wl, wn := sh.WorkWords()
		if dl, dn := sh.DataWords(); wl != dl || wn != dn {
			t.Errorf("%v: work words [%d, %d), data words [%d, %d)", sh, wl, wl+wn, dl, dl+dn)
		}
	}
	ra := Shape{AllocRefArr, 8}
	if !ra.WorkOK(0) || ra.WorkOK(1) || ra.InitOK(0) {
		t.Errorf("%v: work at 0 %v, at 1 %v; init at 0 %v", ra, ra.WorkOK(0), ra.WorkOK(1), ra.InitOK(0))
	}
}
