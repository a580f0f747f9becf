package collectors

import (
	"testing"

	"bookmarkgc/internal/gc"
	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/metrics"
	"bookmarkgc/internal/trace"
	"bookmarkgc/internal/vmm"
)

func TestFixedNurseryBoundsNurserySize(t *testing.T) {
	// The shared Nursery's Appel sizing: the free share, clamped to the
	// fixed size from above and to the minimum useful nursery from below.
	for _, tc := range []struct {
		name              string
		fixed, free, want int
	}{
		{"variable takes the free share", 0, 500, 500},
		{"fixed clamps a larger share", 128, 500, 128},
		{"fixed leaves a smaller share", 128, 100, 100},
		{"minimum wins over a starved share", 0, 10, gc.MinNurseryPages},
		{"minimum wins over a smaller fixed size", 16, 500, gc.MinNurseryPages},
	} {
		n := NewGenMS(newEnv(t, 32)).Nursery
		n.FixedPages = tc.fixed
		n.Resize(tc.free)
		if got := n.Budget(); got != uint64(tc.want)*mem.PageSize {
			t.Errorf("%s: budget %d pages, want %d", tc.name, got/mem.PageSize, tc.want)
		}
	}

	// More frequent nursery GCs than the variable-nursery collector.
	nurseryGCs := func(fixed int) uint64 {
		env := newEnv(t, 32)
		node, _, _ := declareTypes(env)
		c := NewGenMS(env)
		c.Nursery.FixedPages = fixed
		c.resizeNursery()
		for i := 0; i < 200000; i++ {
			c.Alloc(node, 0)
		}
		return c.Stats().Nursery
	}
	if fixed, variable := nurseryGCs(128), nurseryGCs(0); fixed <= variable {
		t.Fatalf("fixed nursery (%d GCs) not more frequent than variable (%d)", fixed, variable)
	}
}

func TestSemiSpaceCopyReserveOOM(t *testing.T) {
	// SemiSpace can only use half the heap: live data over that must OOM
	// even though it would fit a mark-sweep heap.
	env := newEnv(t, 4)
	node, _, _ := declareTypes(env)
	c := NewSemiSpace(env)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected OOM")
		} else if _, ok := r.(gc.ErrOutOfMemory); !ok {
			panic(r)
		}
	}()
	head := c.Roots().Add(c.Alloc(node, 0))
	// > 2 MB of live data in a 4 MB heap: fits GenMS, not SemiSpace.
	for i := 0; i < 50000; i++ {
		o := c.Alloc(node, 0)
		c.WriteRef(o, 0, c.Roots().Get(head))
		c.Roots().Set(head, o)
	}
}

func TestGenMSSurvivesLiveDataSemiSpaceCannot(t *testing.T) {
	env := newEnv(t, 4)
	node, _, _ := declareTypes(env)
	c := NewGenMS(env)
	head := c.Roots().Add(c.Alloc(node, 0))
	for i := 0; i < 50000; i++ { // ~2.4 MB live in a 4 MB heap
		o := c.Alloc(node, 0)
		c.WriteRef(o, 0, c.Roots().Get(head))
		c.Roots().Set(head, o)
	}
	n := 0
	for o := c.Roots().Get(head); o != mem.Nil; o = c.ReadRef(o, 0) {
		n++
	}
	if n != 50001 {
		t.Fatalf("list length %d", n)
	}
}

func TestWriteBarrierOnlyRecordsOldToYoung(t *testing.T) {
	env := newEnv(t, 16)
	env.Counters = trace.NewCounters()
	node, _, _ := declareTypes(env)
	c := NewGenMS(env)
	old := c.Roots().Add(c.Alloc(node, 0))
	c.Collect(true) // promote
	young := c.Roots().Add(c.Alloc(node, 0))

	for _, tc := range []struct {
		name     string
		src      int // root index of the object stored into
		slot     int
		v        func() mem.Addr
		wantSize int // remembered slots after the store
	}{
		{"young->old needs no record", young, 0, func() mem.Addr { return c.Roots().Get(old) }, 0},
		{"old->young is recorded", old, 0, func() mem.Addr { return c.Roots().Get(young) }, 1},
		{"old->nil is not", old, 1, func() mem.Addr { return mem.Nil }, 1},
		{"a second old->young slot is recorded too", old, 1, func() mem.Addr { return c.Roots().Get(young) }, 2},
	} {
		c.WriteRef(c.Roots().Get(tc.src), tc.slot, tc.v())
		if got := c.Nursery.Rem.Size(); got != tc.wantSize {
			t.Fatalf("%s: %d remembered slots, want %d", tc.name, got, tc.wantSize)
		}
	}

	// Forward-once promotion: the young object is reached through two
	// remembered slots and a root, and is copied exactly once.
	promoted := env.Counters.Get(trace.CPromotedBytes)
	c.Collect(false)
	o := c.Roots().Get(old)
	if a, b := c.ReadRef(o, 0), c.ReadRef(o, 1); a != b || a != c.Roots().Get(young) || c.Nursery.Contains(a) {
		t.Fatalf("slots %#x %#x and root %#x should name one mature copy", a, b, c.Roots().Get(young))
	}
	if got := env.Counters.Get(trace.CPromotedBytes) - promoted; got != uint64(node.TotalBytes(0)) {
		t.Fatalf("promoted %d bytes, want one %d-byte object", got, node.TotalBytes(0))
	}
	if got := c.Nursery.Rem.Size(); got != 0 {
		t.Fatalf("%d remembered slots survive the nursery collection", got)
	}
}

func TestCollectionKindsRecorded(t *testing.T) {
	env := newEnv(t, 8)
	node, _, _ := declareTypes(env)
	c := NewGenMS(env)
	for i := 0; i < 400000; i++ {
		c.Alloc(node, 0)
	}
	c.Collect(true)
	tl := &c.Stats().Timeline
	if tl.Count(metrics.PauseNursery) == 0 {
		t.Fatal("no nursery pauses recorded")
	}
	if tl.Count(metrics.PauseFull) == 0 {
		t.Fatal("no full pauses recorded")
	}
	if tl.Count(metrics.PauseNursery)+tl.Count(metrics.PauseFull) != tl.Count() {
		t.Fatal("pause kinds do not partition")
	}
}

func TestCollectorsShareNoState(t *testing.T) {
	// Two collectors on two envs over the same machine must not interfere.
	env1 := newEnv(t, 8)
	node1, _, _ := declareTypes(env1)
	c1 := NewGenMS(env1)
	env2 := newEnv(t, 8)
	node2, _, _ := declareTypes(env2)
	c2 := NewMarkSweep(env2)

	a := c1.Roots().Add(c1.Alloc(node1, 0))
	b := c2.Roots().Add(c2.Alloc(node2, 0))
	c1.WriteData(c1.Roots().Get(a), 2, 1)
	c2.WriteData(c2.Roots().Get(b), 2, 2)
	c1.Collect(true)
	c2.Collect(true)
	if c1.ReadData(c1.Roots().Get(a), 2) != 1 || c2.ReadData(c2.Roots().Get(b), 2) != 2 {
		t.Fatal("cross-collector interference")
	}
}

func TestAdvisedGenMSShrinksHeapUnderPressure(t *testing.T) {
	// The Alonso–Appel advisor variant must adapt its heap budget to
	// available memory and still complete correctly.
	clock := vmm.NewClock()
	v := vmm.New(clock, 24<<20, vmm.DefaultCosts())
	env := gc.NewEnv(v, "advisor", 16<<20)
	node := env.Types.Scalar("node", 4, 0, 1)
	c := NewAdvisedGenMS(env)
	if c.Name() != "GenMSAdvisor" {
		t.Fatal("wrong name")
	}
	head := c.Roots().Add(c.Alloc(node, 0))
	c.WriteData(c.Roots().Get(head), 2, 7)
	before := env.HeapPages
	// Pin most of the machine, then churn: the advisor must shrink.
	v.Pin(v.FreeFrames() - 512)
	for i := 0; i < 800000; i++ {
		c.Alloc(node, 0)
	}
	if env.HeapPages >= before {
		t.Fatalf("advisor never shrank the heap: %d -> %d", before, env.HeapPages)
	}
	if got := c.ReadData(c.Roots().Get(head), 2); got != 7 {
		t.Fatalf("data corrupted: %d", got)
	}
}

// TestAdvisorNeverAdvisesBetweenRungs: GenMSAdvisor consults its advisor
// once an allocation that collected is done, never between the rungs it
// climbs. With most of the machine pinned, advice would shrink the heap,
// so a request no rung can place must run out of memory in the heap it
// started with.
func TestAdvisorNeverAdvisesBetweenRungs(t *testing.T) {
	v := vmm.New(vmm.NewClock(), 24<<20, vmm.DefaultCosts())
	env := gc.NewEnv(v, "advisor", 16<<20)
	_, _, dataArr := declareTypes(env)
	c := NewAdvisedGenMS(env)
	v.Pin(v.FreeFrames() - 512)
	before := env.HeapPages
	oom, kinds := pausesToOOM(t, c, func() { c.Alloc(dataArr, 20<<20/mem.WordSize) })
	if kinds != "nursery full" {
		t.Errorf("pauses before the panic: %q, want %q", kinds, "nursery full")
	}
	if env.HeapPages != before || oom.HeapPages != before {
		t.Fatalf("heap %d pages, error names %d, want %d: the advisor ran between rungs", env.HeapPages, oom.HeapPages, before)
	}
}
