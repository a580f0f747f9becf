package gc

import (
	"testing"

	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/objmodel"
	"bookmarkgc/internal/vmm"
)

func testEnv(t testing.TB) *Env {
	t.Helper()
	clock := vmm.NewClock()
	v := vmm.New(clock, 128<<20, vmm.DefaultCosts())
	return NewEnv(v, "gc-test", 8<<20)
}

func TestEnvWiring(t *testing.T) {
	env := testEnv(t)
	if env.HeapPages != (8<<20)/mem.PageSize {
		t.Fatalf("HeapPages = %d", env.HeapPages)
	}
	if env.Space.Size() == 0 || env.Classes.Len() == 0 {
		t.Fatal("env incomplete")
	}
	if env.Layout.Total == 0 {
		t.Fatal("layout missing")
	}
}

func TestRootsLifecycle(t *testing.T) {
	var r Roots
	a := r.Add(0x1000)
	b := r.Add(0x2000)
	if r.Get(a) != 0x1000 || r.Get(b) != 0x2000 {
		t.Fatal("Get wrong")
	}
	r.Set(a, 0x3000)
	if r.Get(a) != 0x3000 {
		t.Fatal("Set wrong")
	}
	r.Release(a)
	if r.Get(a) != mem.Nil {
		t.Fatal("Release did not nil the slot")
	}
	c := r.Add(0x4000)
	if c != a {
		t.Fatalf("freed slot not reused: %d vs %d", c, a)
	}
	n := 0
	r.ForEach(func(slot *mem.Addr) {
		n++
		if *slot == 0x2000 {
			*slot = 0x2008 // moving collectors update through the pointer
		}
	})
	if n != 2 {
		t.Fatalf("ForEach visited %d", n)
	}
	if r.Get(b) != 0x2008 {
		t.Fatal("ForEach update lost")
	}
}

// TestRootsAppend: Append takes a new slot past every existing one even
// while freed slots wait for Add, so consecutive Appends fill one block,
// and the freed slots stay free for the next Add.
func TestRootsAppend(t *testing.T) {
	var r Roots
	if s := r.Append(0x1000); s != 0 {
		t.Fatalf("first Append on an empty registry took slot %d", s)
	}
	for i := 1; i < 5; i++ {
		r.Add(mem.Addr(0x1000 * (i + 1)))
	}
	r.Release(1)
	r.Release(3)
	for i := 0; i < 3; i++ {
		if s := r.Append(mem.Addr(0x9000 + 8*i)); s != 5+i {
			t.Fatalf("Append %d took slot %d, want %d", i, s, 5+i)
		}
	}
	if r.Len() != 8 || r.Get(1) != mem.Nil || r.Get(3) != mem.Nil || r.Get(6) != 0x9008 {
		t.Fatalf("registry after Appends: len %d, slots 1, 3, 6 = %#x %#x %#x", r.Len(), r.Get(1), r.Get(3), r.Get(6))
	}
	if a, b := r.Add(0x2000), r.Add(0x4000); a != 3 || b != 1 {
		t.Fatalf("Add after Appends took slots %d and %d, want the freed 3 and 1", a, b)
	}
}

func TestWorkList(t *testing.T) {
	var w WorkList
	if _, ok := w.Pop(); ok {
		t.Fatal("empty pop succeeded")
	}
	w.Push(1)
	w.Push(2)
	if w.Len() != 2 {
		t.Fatal("Len wrong")
	}
	o, ok := w.Pop()
	if !ok || o != 2 {
		t.Fatal("LIFO order broken")
	}
	w.Reset()
	if w.Len() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestScanObjectAndCopy(t *testing.T) {
	env := testEnv(t)
	node := env.Types.Scalar("node", 4, 1, 3)
	base := env.Layout.Bump0Base

	objmodel.ClearStatus(env.Space, base)
	objmodel.SetTypeWord(env.Space, base, node.ID, 0)
	env.Space.WriteAddr(node.RefSlotAddr(base, 0), 0x5000)
	env.Space.WriteAddr(node.RefSlotAddr(base, 1), mem.Nil) // skipped
	env.Space.WriteWord(DataAddr(base, 0), 77)

	var slots []mem.Addr
	var tgts []objmodel.Ref
	ScanObject(env.Space, env.Types, base, func(s mem.Addr, tgt objmodel.Ref) {
		slots = append(slots, s)
		tgts = append(tgts, tgt)
	})
	if len(slots) != 1 || tgts[0] != 0x5000 {
		t.Fatalf("ScanObject: %v %v", slots, tgts)
	}
	if got := ObjectBytes(env.Space, env.Types, base); got != node.TotalBytes(0) {
		t.Fatalf("ObjectBytes = %d", got)
	}

	dst := base + 4096
	CopyObject(env.Space, base, dst, node.TotalBytes(0))
	if env.Space.ReadWord(DataAddr(dst, 0)) != 77 {
		t.Fatal("CopyObject lost payload")
	}
	if objmodel.TypeID(env.Space, dst) != node.ID {
		t.Fatal("CopyObject lost header")
	}
}

func TestBaseAccessors(t *testing.T) {
	env := testEnv(t)
	node := env.Types.Scalar("node", 4, 0)
	b := &Base{E: env}

	o := objmodel.Ref(env.Layout.Bump0Base)
	objmodel.ClearStatus(env.Space, o)
	objmodel.SetTypeWord(env.Space, o, node.ID, 0)

	b.WriteRefRaw(o, 0, 0x7000)
	if got := b.ReadRef(o, 0); got != 0x7000 {
		t.Fatalf("ReadRef = %#x", got)
	}
	b.WriteData(o, 1, 42)
	if got := b.ReadData(o, 1); got != 42 {
		t.Fatalf("ReadData = %d", got)
	}
	b.CountAlloc(node, 0)
	if b.Stats().ObjectsAlloc != 1 || b.Stats().BytesAlloc == 0 {
		t.Fatal("CountAlloc wrong")
	}
	e1 := b.NextEpoch()
	e2 := b.NextEpoch()
	if e2 != e1+1 || b.Epoch() != e2 {
		t.Fatal("epoch sequence wrong")
	}
}

func TestEpochWraps(t *testing.T) {
	b := &Base{epoch: objmodel.MaxEpoch}
	if got := b.NextEpoch(); got != 1 {
		t.Fatalf("epoch after max = %d, want 1", got)
	}
}

func TestMatureAllocBudget(t *testing.T) {
	env := testEnv(t)
	node := env.Types.Scalar("node", 4, 0)
	big := env.Types.Array("big", false)
	m := NewMature(&Base{E: env})

	// Small alloc within budget acquires a superpage.
	o := m.AllocMature(node, 0, env.HeapPages, 0)
	if o == mem.Nil {
		t.Fatal("alloc failed")
	}
	if m.MatureUsedPages() != mem.SuperPages {
		t.Fatalf("used pages = %d", m.MatureUsedPages())
	}
	// Budget exactly consumed: next superpage acquisition must fail.
	if got := m.AllocMature(big, 4000, mem.SuperPages, 0); got != mem.Nil {
		t.Fatal("LOS alloc ignored budget")
	}
	// Large object within budget goes to the LOS.
	l := m.AllocMature(big, 4000, env.HeapPages, 0)
	if l == mem.Nil || !m.LOS.Contains(l) {
		t.Fatal("large object not in LOS")
	}
}

func TestMarkStepAndTrace(t *testing.T) {
	env := testEnv(t)
	node := env.Types.Scalar("node", 4, 0, 1)
	m := NewMature(&Base{E: env})
	a := m.AllocMature(node, 0, env.HeapPages, 0)
	b := m.AllocMature(node, 0, env.HeapPages, 0)
	c := m.AllocMature(node, 0, env.HeapPages, 0)
	env.Space.WriteAddr(node.RefSlotAddr(a, 0), b)
	env.Space.WriteAddr(node.RefSlotAddr(b, 1), c)

	var work WorkList
	MarkStep(env, &work, a, 5)
	MarkTrace(env, &work, 5, nil)
	for _, o := range []objmodel.Ref{a, b, c} {
		if !objmodel.Marked(env.Space, o, 5) {
			t.Fatalf("%#x unmarked", o)
		}
	}
	// A follow filter prunes the walk.
	var work2 WorkList
	MarkStep(env, &work2, a, 6)
	MarkTrace(env, &work2, 6, func(tgt objmodel.Ref) bool { return tgt != b })
	if objmodel.Marked(env.Space, b, 6) {
		t.Fatal("filtered target was marked")
	}
}

func TestRemSetUnbounded(t *testing.T) {
	r := NewRemSet(testEnv(t).Space, 0, 1<<20, 0)
	for i := 0; i < 2000; i++ {
		r.Record(mem.Addr(i * 8))
	}
	if r.Size() != 2000 {
		t.Fatalf("Size = %d", r.Size())
	}
	if r.Flushes() != 0 {
		t.Fatal("unbounded buffer flushed")
	}
	n := 0
	r.ForEachSlot(func(mem.Addr) { n++ })
	if n != 2000 {
		t.Fatal("ForEachSlot wrong")
	}
	r.Clear()
	if r.Size() != 0 {
		t.Fatal("Clear failed")
	}
}

func TestRemSetFilterIntoCards(t *testing.T) {
	r := NewRemSet(testEnv(t).Space, 0, 1<<20, 4) // tiny buffer for the test
	keep := map[mem.Addr]bool{0x1000: true, 0x2000: true}
	r.SetFilter(func(slot mem.Addr) bool { return keep[slot] })
	r.Record(0x1000)
	r.Record(0x1800) // pruned at flush
	r.Record(0x2000)
	if r.Flushes() != 0 {
		t.Fatal("flushed early")
	}
	r.Record(0x9000) // 4th: triggers flush; also pruned
	if r.Flushes() != 1 || r.Size() != 0 {
		t.Fatalf("flushes=%d size=%d", r.Flushes(), r.Size())
	}
	var cards [][2]mem.Addr
	r.ForEachCard(func(s, e mem.Addr) { cards = append(cards, [2]mem.Addr{s, e}) })
	// 0x1000 and 0x2000 are in different 512-byte cards; 0x1800 pruned.
	if len(cards) != 2 {
		t.Fatalf("cards = %v", cards)
	}
	if cards[0][0] != 0x1000 || cards[1][0] != 0x2000 {
		t.Fatalf("card ranges wrong: %v", cards)
	}
	r.Clear()
	r.ForEachCard(func(s, _ mem.Addr) { t.Fatalf("card at %#x survives Clear", s) })
}

func TestRemSetMaxBufferPages(t *testing.T) {
	r := NewRemSet(testEnv(t).Space, 0, 1<<20, 0)
	if r.MaxBufferPages() != 0 {
		t.Fatal("empty buffer has pages")
	}
	for i := 0; i < EntriesPerPage+1; i++ {
		r.Record(mem.Addr(i * 8))
	}
	if got := r.MaxBufferPages(); got != 2 {
		t.Fatalf("MaxBufferPages = %d, want 2", got)
	}
}

func TestErrOutOfMemoryMessage(t *testing.T) {
	err := ErrOutOfMemory{Collector: "X", HeapPages: 10}
	if err.Error() == "" {
		t.Fatal("empty error")
	}
}

// TestMarkerTallyComesBackZero: a run that fails mid-mark retires its
// Marker with a dirty tally — counts charged, never replayed. The next
// environment's Marker, built over a Space that took the released
// Space's tables, must start from a zero tally in every entry.
func TestMarkerTallyComesBackZero(t *testing.T) {
	const heapBytes = 7 << 20 // a size no other test uses
	v := vmm.New(vmm.NewClock(), 64<<20, vmm.DefaultCosts())
	env := NewEnv(v, "failed", heapBytes)
	m := env.Marker()
	for pg := range m.touch {
		m.charge(mem.PageID(pg), 3)
	}
	full := m.touch[:cap(m.touch)]
	for i := range full {
		full[i] = -1
	}
	tally := &full[0]
	env.ReleaseScratch(nil)
	v.Release()

	v = vmm.New(vmm.NewClock(), 64<<20, vmm.DefaultCosts())
	env = NewEnv(v, "next", heapBytes)
	m = env.Marker()
	if &m.touch[0] != tally {
		t.Fatal("the next Marker did not take the released tally")
	}
	for pg, n := range m.touch[:cap(m.touch)] {
		if n != 0 {
			t.Fatalf("page %d starts with %d tallied accesses", pg, n)
		}
	}
	env.ReleaseScratch(nil)
	v.Release()
}
