package collectors

import (
	"math/rand"
	"strings"
	"testing"

	"bookmarkgc/internal/gc"
	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/objmodel"
	"bookmarkgc/internal/vmm"
)

// newEnv builds a test environment with ample physical memory (so these
// tests exercise GC logic, not paging) and a heapMB-page budget.
func newEnv(t testing.TB, heapMB int) *gc.Env {
	t.Helper()
	clock := vmm.NewClock()
	v := vmm.New(clock, 512<<20, vmm.DefaultCosts())
	return gc.NewEnv(v, "test", uint64(heapMB)<<20)
}

// makers for every baseline collector, reused by all table-driven tests.
var makers = map[string]func(*gc.Env) gc.Collector{
	"MarkSweep": func(e *gc.Env) gc.Collector { return NewMarkSweep(e) },
	"SemiSpace": func(e *gc.Env) gc.Collector { return NewSemiSpace(e) },
	"GenMS":     func(e *gc.Env) gc.Collector { return NewGenMS(e) },
	"GenCopy":   func(e *gc.Env) gc.Collector { return NewGenCopy(e) },
	"CopyMS":    func(e *gc.Env) gc.Collector { return NewCopyMS(e) },
	"GenMSFixed": func(e *gc.Env) gc.Collector {
		c := NewGenMS(e)
		c.Nursery.FixedPages = 128
		return c
	},
	"GenCopyFixed": func(e *gc.Env) gc.Collector {
		c := NewGenCopy(e)
		c.Nursery.FixedPages = 128
		return c
	},
}

// declareTypes registers the standard test types on an env.
func declareTypes(env *gc.Env) (node, refArr, dataArr *objmodel.Type) {
	node = env.Types.Scalar("node", 4, 0, 1) // refs at 0,1; data at 2,3
	refArr = env.Types.Array("refArr", true)
	dataArr = env.Types.Array("dataArr", false)
	return
}

func TestAllocInitializesObject(t *testing.T) {
	for name, mk := range makers {
		t.Run(name, func(t *testing.T) {
			env := newEnv(t, 8)
			node, _, _ := declareTypes(env)
			c := mk(env)
			o := c.Alloc(node, 0)
			if o == mem.Nil {
				t.Fatal("alloc returned nil")
			}
			if got := c.ReadRef(o, 0); got != mem.Nil {
				t.Fatalf("fresh ref slot = %#x", got)
			}
			if got := c.ReadData(o, 2); got != 0 {
				t.Fatalf("fresh data word = %d", got)
			}
			c.WriteData(o, 2, 77)
			if got := c.ReadData(o, 2); got != 77 {
				t.Fatalf("data round trip = %d", got)
			}
		})
	}
}

// buildTree builds a binary tree of the given depth, storing a checksum
// in each node's data words, and returns its root slot.
func buildTree(c gc.Collector, node *objmodel.Type, depth int, seed uint64) int {
	var build func(d int, path uint64) objmodel.Ref
	build = func(d int, path uint64) objmodel.Ref {
		o := c.Alloc(node, 0)
		// Protect o across child allocations (which may GC and move it).
		slot := c.Roots().Add(o)
		c.WriteData(o, 2, seed^path)
		if d > 0 {
			l := build(d-1, path*2+1)
			c.WriteRef(c.Roots().Get(slot), 0, l)
			r := build(d-1, path*2+2)
			c.WriteRef(c.Roots().Get(slot), 1, r)
		}
		o = c.Roots().Get(slot)
		c.Roots().Release(slot)
		return o
	}
	root := build(depth, 0)
	return c.Roots().Add(root)
}

// checkTree verifies the checksums of the whole tree.
func checkTree(t *testing.T, c gc.Collector, rootSlot int, depth int, seed uint64) {
	t.Helper()
	var walk func(o objmodel.Ref, d int, path uint64)
	walk = func(o objmodel.Ref, d int, path uint64) {
		if got := c.ReadData(o, 2); got != seed^path {
			t.Fatalf("node at path %d: data = %#x, want %#x", path, got, seed^path)
		}
		l, r := c.ReadRef(o, 0), c.ReadRef(o, 1)
		if d > 0 {
			if l == mem.Nil || r == mem.Nil {
				t.Fatalf("interior node at path %d lost children", path)
			}
			walk(l, d-1, path*2+1)
			walk(r, d-1, path*2+2)
		} else if l != mem.Nil || r != mem.Nil {
			t.Fatalf("leaf at path %d grew children", path)
		}
	}
	walk(c.Roots().Get(rootSlot), depth, 0)
}

func TestTreeSurvivesExplicitCollections(t *testing.T) {
	for name, mk := range makers {
		t.Run(name, func(t *testing.T) {
			env := newEnv(t, 16)
			node, _, _ := declareTypes(env)
			c := mk(env)
			root := buildTree(c, node, 8, 0xabcd)
			checkTree(t, c, root, 8, 0xabcd)
			c.Collect(false)
			checkTree(t, c, root, 8, 0xabcd)
			c.Collect(true)
			checkTree(t, c, root, 8, 0xabcd)
			c.Collect(true) // twice: semispaces flip back
			checkTree(t, c, root, 8, 0xabcd)
		})
	}
}

func TestGarbageIsReclaimed(t *testing.T) {
	for name, mk := range makers {
		t.Run(name, func(t *testing.T) {
			env := newEnv(t, 4)
			node, _, dataArr := declareTypes(env)
			c := mk(env)
			root := buildTree(c, node, 6, 1)
			// Allocate far more garbage than the heap holds: must not OOM.
			for i := 0; i < 200000; i++ {
				o := c.Alloc(node, 0)
				c.WriteData(o, 2, uint64(i))
				if i%100 == 0 {
					c.Alloc(dataArr, 300)
				}
			}
			checkTree(t, c, root, 6, 1)
			if c.Stats().Timeline.Count() == 0 {
				t.Fatal("no collections happened")
			}
		})
	}
}

func TestOldToYoungPointersSurviveNurseryGC(t *testing.T) {
	// Only generational collectors have the barrier; run them all anyway —
	// for the others this is just another liveness test.
	for name, mk := range makers {
		t.Run(name, func(t *testing.T) {
			env := newEnv(t, 16)
			node, _, _ := declareTypes(env)
			c := mk(env)

			// Make an old object: allocate and force a full collection so
			// it is promoted/mature.
			old := c.Roots().Add(c.Alloc(node, 0))
			c.WriteData(c.Roots().Get(old), 2, 111)
			c.Collect(true)

			// Store young pointers into the old object, then drop the
			// young object's root so only the old->young edge keeps it.
			young := c.Alloc(node, 0)
			c.WriteData(young, 2, 222)
			c.WriteRef(c.Roots().Get(old), 0, young)

			c.Collect(false) // nursery GC
			got := c.ReadRef(c.Roots().Get(old), 0)
			if got == mem.Nil {
				t.Fatal("old->young edge lost")
			}
			if v := c.ReadData(got, 2); v != 222 {
				t.Fatalf("young object corrupted: %d", v)
			}
			if v := c.ReadData(c.Roots().Get(old), 2); v != 111 {
				t.Fatalf("old object corrupted: %d", v)
			}
		})
	}
}

func TestLargeObjectsSurvive(t *testing.T) {
	for name, mk := range makers {
		t.Run(name, func(t *testing.T) {
			env := newEnv(t, 16)
			node, refArr, dataArr := declareTypes(env)
			c := mk(env)

			// A large ref array (LOS) pointing at small objects.
			n := 3000 // 24 KB payload: well beyond the LOS threshold
			arr := c.Roots().Add(c.Alloc(refArr, n))
			for i := 0; i < 10; i++ {
				o := c.Alloc(node, 0)
				c.WriteData(o, 2, uint64(i)*7)
				c.WriteRef(c.Roots().Get(arr), i*100, o)
			}
			big := c.Roots().Add(c.Alloc(dataArr, n))
			c.WriteData(c.Roots().Get(big), 1234, 99)

			c.Collect(true)
			c.Collect(false)
			c.Collect(true)

			for i := 0; i < 10; i++ {
				o := c.ReadRef(c.Roots().Get(arr), i*100)
				if o == mem.Nil {
					t.Fatalf("LOS->small edge %d lost", i)
				}
				if v := c.ReadData(o, 2); v != uint64(i)*7 {
					t.Fatalf("small object %d corrupted: %d", i, v)
				}
			}
			if v := c.ReadData(c.Roots().Get(big), 1234); v != 99 {
				t.Fatalf("large data array corrupted: %d", v)
			}
		})
	}
}

// outOfMemoryLadder holds, per collector, the pauses recorded between
// the last allocation that succeeded and the ErrOutOfMemory panic: for a
// growing list, where a collection itself runs out of room (promotion,
// or live data past the heap at its end), and for one request larger
// than the heap, where every collection succeeds and the collector
// climbs each rung of its escalation ladder before it gives up.
var outOfMemoryLadder = map[string]struct{ list, oversized string }{
	"MarkSweep":    {"full full", "full full"},
	"SemiSpace":    {"full full", "full full"},
	"GenMS":        {"nursery full", "nursery full"},
	"GenCopy":      {"nursery", "nursery full"},
	"CopyMS":       {"full", "full full"},
	"GenMSFixed":   {"nursery full", "nursery full"},
	"GenCopyFixed": {"nursery", "nursery full"},
}

// pausesToOOM calls step until the collector panics out of memory and
// returns the kinds of the pauses recorded after the last step that
// completed.
func pausesToOOM(t *testing.T, c gc.Collector, step func()) (kinds string) {
	t.Helper()
	done := len(c.Stats().Timeline.Pauses)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected ErrOutOfMemory panic")
		}
		if _, ok := r.(gc.ErrOutOfMemory); !ok {
			panic(r)
		}
		var names []string
		for _, p := range c.Stats().Timeline.Pauses[done:] {
			names = append(names, p.Kind.String())
		}
		kinds = strings.Join(names, " ")
	}()
	for {
		step()
		done = len(c.Stats().Timeline.Pauses)
	}
}

func TestOutOfMemoryPanics(t *testing.T) {
	for name, mk := range makers {
		t.Run(name, func(t *testing.T) {
			want := outOfMemoryLadder[name]
			env := newEnv(t, 2) // 2 MB heap
			node, _, dataArr := declareTypes(env)
			c := mk(env)
			// A linked list that can never be collected.
			head := c.Roots().Add(c.Alloc(node, 0))
			got := pausesToOOM(t, c, func() {
				o := c.Alloc(node, 0)
				c.WriteRef(o, 0, c.Roots().Get(head))
				c.Roots().Set(head, o)
			})
			if got != want.list {
				t.Errorf("growing list: pauses from the last successful Alloc to the panic: %q, want %q", got, want.list)
			}

			env = newEnv(t, 2)
			_, _, dataArr = declareTypes(env)
			c = mk(env)
			got = pausesToOOM(t, c, func() { c.Alloc(dataArr, 3<<20/mem.WordSize) })
			if got != want.oversized {
				t.Errorf("3 MB array: pauses from the last successful Alloc to the panic: %q, want %q", got, want.oversized)
			}
		})
	}
}

func TestRandomGraphChurn(t *testing.T) {
	// Property-style stress: a mutating random graph with a shadow copy
	// in Go. After heavy churn and collections, the shadow and heap agree.
	for name, mk := range makers {
		t.Run(name, func(t *testing.T) {
			env := newEnv(t, 16)
			node, _, _ := declareTypes(env)
			c := mk(env)
			rng := rand.New(rand.NewSource(42))

			const N = 64
			slots := make([]int, N)     // root slots
			shadow := make([]uint64, N) // expected data word
			for i := range slots {
				o := c.Alloc(node, 0)
				shadow[i] = rng.Uint64()
				c.WriteData(o, 2, shadow[i])
				slots[i] = c.Roots().Add(o)
			}
			edges := map[[2]int]bool{} // i -> j via slot 0/1
			for step := 0; step < 30000; step++ {
				switch rng.Intn(10) {
				case 0, 1, 2, 3: // allocate garbage
					g := c.Alloc(node, 0)
					c.WriteData(g, 2, 0xdead)
				case 4, 5: // replace a root object
					i := rng.Intn(N)
					o := c.Alloc(node, 0)
					shadow[i] = rng.Uint64()
					c.WriteData(o, 2, shadow[i])
					c.Roots().Set(slots[i], o)
					delete(edges, [2]int{i, 0})
					delete(edges, [2]int{i, 1})
				case 6, 7: // link two root objects
					i, j, k := rng.Intn(N), rng.Intn(N), rng.Intn(2)
					c.WriteRef(c.Roots().Get(slots[i]), k, c.Roots().Get(slots[j]))
					edges[[2]int{i, k}] = true
				case 8: // verify one object
					i := rng.Intn(N)
					if got := c.ReadData(c.Roots().Get(slots[i]), 2); got != shadow[i] {
						t.Fatalf("step %d: object %d = %#x, want %#x", step, i, got, shadow[i])
					}
				case 9:
					if step%1000 == 9 {
						c.Collect(rng.Intn(2) == 0)
					}
				}
			}
			for i := range slots {
				if got := c.ReadData(c.Roots().Get(slots[i]), 2); got != shadow[i] {
					t.Fatalf("final: object %d = %#x, want %#x", i, got, shadow[i])
				}
			}
		})
	}
}

func TestPausesAreRecorded(t *testing.T) {
	env := newEnv(t, 4)
	node, _, _ := declareTypes(env)
	c := NewGenMS(env)
	for i := 0; i < 200000; i++ {
		c.Alloc(node, 0)
	}
	st := c.Stats()
	if st.Nursery == 0 {
		t.Fatal("no nursery collections recorded")
	}
	if got := st.Timeline.Count(); got != int(st.Nursery+st.Full) {
		t.Fatalf("timeline count %d != collections %d", got, st.Nursery+st.Full)
	}
	if st.Timeline.AvgPause() <= 0 {
		t.Fatal("pauses have no duration")
	}
}

func TestHeapBudgetRespectedAfterGC(t *testing.T) {
	for name, mk := range makers {
		t.Run(name, func(t *testing.T) {
			env := newEnv(t, 4)
			node, _, _ := declareTypes(env)
			c := mk(env)
			root := buildTree(c, node, 10, 3)
			for i := 0; i < 100000; i++ {
				c.Alloc(node, 0)
			}
			checkTree(t, c, root, 10, 3)
			// The budget may be transiently exceeded mid-GC but never by
			// more than the slack documented (minNursery + one superpage).
			if got := c.UsedPages(); got > env.HeapPages+gc.MinNurseryPages+mem.SuperPages {
				t.Fatalf("footprint %d pages exceeds budget %d", got, env.HeapPages)
			}
		})
	}
}
