package gc

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/objmodel"
	"bookmarkgc/internal/trace"
	"bookmarkgc/internal/vmm"
)

// MarkTrace is the engine tests' reference: it drains the worklist
// through the charged accessors, scanning each object and marking its
// targets. follow filters which targets to pursue (nil = all).
func MarkTrace(env *Env, work *WorkList, epoch uint32, follow func(objmodel.Ref) bool) {
	Drain(env, work, func(_ mem.Addr, tgt objmodel.Ref) {
		if follow != nil && !follow(tgt) {
			return
		}
		MarkStep(env, work, tgt, epoch)
	})
}

// allocNodes allocates n zeroed mature objects of type ty (arrayLen
// elements each for an array type).
func allocNodes(t testing.TB, m *Mature, ty *objmodel.Type, arrayLen, n int) []objmodel.Ref {
	t.Helper()
	env := m.b.E
	objs := make([]objmodel.Ref, n)
	for i := range objs {
		if objs[i] = m.AllocMature(ty, arrayLen, env.HeapPages, 0); objs[i] == mem.Nil {
			t.Fatal("alloc failed")
		}
	}
	return objs
}

// checkAgainstMarkTrace marks the graph build returns (every object
// ever allocated, and the root) with the reference MarkTrace and then
// with the engine, on one heap. The marked set and the number of objects
// the engine scanned must equal the reference's: a gray object dropped
// leaves its count (and what only it reaches) short, one duplicated is
// scanned twice.
func checkAgainstMarkTrace(t *testing.T, heapBytes uint64, build func(env *Env, m *Mature) (all []objmodel.Ref, root objmodel.Ref)) {
	t.Helper()
	env := NewEnv(vmm.New(vmm.NewClock(), 4*heapBytes, vmm.DefaultCosts()), "gc-test", heapBytes)
	env.Counters = trace.NewCounters()
	m := NewMature(&Base{E: env})
	all, root := build(env, &m)

	// The header holds one epoch, so snapshot the reference's verdicts
	// before the engine re-marks at a later epoch.
	var work WorkList
	MarkStep(env, &work, root, 1)
	MarkTrace(env, &work, 1, nil)
	ref := make([]bool, len(all))
	var want uint64
	for i, o := range all {
		if ref[i] = objmodel.Marked(env.Space, o, 1); ref[i] {
			want++
		}
	}

	MarkStep(env, &work, root, 2)
	env.Marker().Mark(&MarkConfig{Epoch: 2}, &work, nil)
	for j, o := range all {
		if got := objmodel.Marked(env.Space, o, 2); got != ref[j] {
			t.Fatalf("object %d of %d: MarkTrace=%v engine=%v", j, len(all), ref[j], got)
		}
	}
	if got := env.Counters.Get(trace.CMarkObjects); got != want {
		t.Fatalf("engine scanned %d objects, MarkTrace marked %d", got, want)
	}
}

// TestMarkChain: a 50k-node list never has more than one gray object;
// the round must still terminate with the whole chain marked.
func TestMarkChain(t *testing.T) {
	checkAgainstMarkTrace(t, 8<<20, func(env *Env, m *Mature) ([]objmodel.Ref, objmodel.Ref) {
		node := env.Types.Scalar("cnode", 2, 0)
		all := allocNodes(t, m, node, 0, 50000)
		for i := 1; i < len(all); i++ {
			env.Space.WriteAddr(node.RefSlotAddr(all[i-1], 0), all[i])
		}
		return all, all[0]
	})
}

// TestMarkFanOut: one root array pointing at 4096 short chains, so the
// first scan makes thousands of objects gray at once.
func TestMarkFanOut(t *testing.T) {
	checkAgainstMarkTrace(t, 8<<20, func(env *Env, m *Mature) ([]objmodel.Ref, objmodel.Ref) {
		const width, depth = 4096, 4
		node := env.Types.Scalar("fnode", 2, 0)
		root := allocNodes(t, m, env.Types.Array("froot", true), width, 1)[0]
		all := allocNodes(t, m, node, 0, width*depth)
		for i, o := range all {
			if i%depth == 0 {
				env.Space.WriteAddr(objmodel.Payload(root)+mem.Addr(i/depth)*mem.WordSize, o)
			} else {
				env.Space.WriteAddr(node.RefSlotAddr(all[i-1], 0), o)
			}
		}
		return append(all, root), root
	})
}

// TestMarkFilters runs the three callbacks BC's in-memory trace sets
// (SlotOK, Classify → EdgeSkip, SkipObj) over a random graph with a
// quarter of its pages declared off limits. The marked set must be what
// an uncharged host-side walk under the same filters reaches, and
// nothing on a forbidden page may be marked.
func TestMarkFilters(t *testing.T) {
	env := testEnv(t)
	env.Counters = trace.NewCounters()
	m := NewMature(&Base{E: env})
	all, root := buildRandomGraph(t, env, &m, 4000, 11)
	ok := func(pg mem.PageID) bool { return pg%4 != 3 || pg == root.Page() }
	// Stricter than Classify, as when a page is evicted while objects on
	// it are gray.
	skip := func(o objmodel.Ref) bool { return o.Page()%8 == 5 && o != root }
	cfg := &MarkConfig{
		Epoch:  4,
		SlotOK: func(slot mem.Addr) bool { return ok(slot.Page()) },
		Classify: func(tgt objmodel.Ref) EdgeAction {
			if !ok(tgt.Page()) {
				return EdgeSkip
			}
			return EdgeMark
		},
		SkipObj: skip,
	}
	var work WorkList
	MarkStep(env, &work, root, 4)
	env.Marker().Mark(cfg, &work, nil)

	want := map[objmodel.Ref]bool{root: true}
	for stack := []objmodel.Ref{root}; len(stack) > 0; {
		o := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if skip(o) {
			continue
		}
		ty, n := objmodel.TypeOfRaw(env.Space, env.Types, o)
		for i := 0; i < ty.NumRefSlots(n); i++ {
			slot := ty.RefSlotAddr(o, i)
			if !ok(slot.Page()) {
				continue
			}
			if tgt := objmodel.Ref(env.Space.PeekWord(slot)); tgt != mem.Nil && ok(tgt.Page()) && !want[tgt] {
				want[tgt] = true
				stack = append(stack, tgt)
			}
		}
	}
	marked := 0
	for _, o := range all {
		got := objmodel.Marked(env.Space, o, 4)
		if got != want[o] {
			t.Fatalf("%#x: engine marked=%v, filtered walk reached=%v", o, got, want[o])
		}
		if got {
			marked++
			if !ok(o.Page()) {
				t.Fatalf("%#x marked on a forbidden page", o)
			}
		}
	}
	if scanned := env.Counters.Get(trace.CMarkObjects); marked < 100 || uint64(marked) <= scanned {
		t.Fatalf("filters did not bite: %d marked, %d scanned", marked, scanned)
	}
}

// buildRandomGraph allocates n mature objects and wires a seeded random
// edge set over the first reachable half, returning all objects and the
// root. Objects in the second half stay unreachable.
func buildRandomGraph(t *testing.T, env *Env, m *Mature, n int, seed int64) (all []objmodel.Ref, root objmodel.Ref) {
	t.Helper()
	node := env.Types.Scalar("pnode", 8, 0, 1)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		o := m.AllocMature(node, 0, env.HeapPages, 0)
		if o == mem.Nil {
			t.Fatal("alloc failed")
		}
		all = append(all, o)
	}
	half := n / 2
	for i := 0; i < half; i++ {
		for s := 0; s < 2; s++ {
			var tgt objmodel.Ref = mem.Nil
			if rng.Intn(4) != 0 {
				tgt = all[rng.Intn(half)]
			}
			env.Space.WriteAddr(node.RefSlotAddr(all[i], s), tgt)
		}
	}
	// Chain the reachable half off the root so everything in it is live.
	for i := 1; i < half; i++ {
		env.Space.WriteAddr(node.RefSlotAddr(all[i-1], 1), all[i])
	}
	return all, all[0]
}

// TestMarkMatchesSequential is the engine's property test: for the same
// random graph, the engine must produce exactly the marked set the
// reference MarkTrace produces.
func TestMarkMatchesSequential(t *testing.T) {
	env := testEnv(t)
	env.Counters = trace.NewCounters()
	m := NewMature(&Base{E: env})
	all, root := buildRandomGraph(t, env, &m, 600, 42)

	// Reference marking at epoch 5. Snapshot the marked set before the
	// engine's pass: the header holds one epoch, so re-marking at epoch
	// 6 erases the epoch-5 verdicts.
	var work WorkList
	MarkStep(env, &work, root, 5)
	MarkTrace(env, &work, 5, nil)
	seq := make([]bool, len(all))
	for i, o := range all {
		seq[i] = objmodel.Marked(env.Space, o, 5)
	}

	// Engine marking at epoch 6.
	work.Reset()
	MarkStep(env, &work, root, 6)
	env.Marker().Mark(&MarkConfig{Epoch: 6}, &work, nil)

	for i, o := range all {
		if got := objmodel.Marked(env.Space, o, 6); seq[i] != got {
			t.Fatalf("%#x: MarkTrace=%v engine=%v", o, seq[i], got)
		}
	}
	if env.Counters.Get(trace.CMarkObjects) == 0 {
		t.Fatal("engine scanned nothing")
	}
}

// TestMarkDeterminism marks the same graph on two fresh environments:
// marked set, simulated clock, and graph-total counters must be
// bit-identical.
func TestMarkDeterminism(t *testing.T) {
	type result struct {
		clock   int64
		objects uint64
		bytes   uint64
		rounds  uint64
		marked  []objmodel.Ref
	}
	run := func() result {
		env := testEnv(t)
		env.Counters = trace.NewCounters()
		m := NewMature(&Base{E: env})
		all, root := buildRandomGraph(t, env, &m, 800, 7)
		var work WorkList
		MarkStep(env, &work, root, 3)
		env.Marker().Mark(&MarkConfig{Epoch: 3}, &work, nil)
		r := result{
			clock:   int64(env.Clock.Now()),
			objects: env.Counters.Get(trace.CMarkObjects),
			bytes:   env.Counters.Get(trace.CMarkBytes),
			rounds:  env.Counters.Get(trace.CMarkRounds),
		}
		for _, o := range all {
			if objmodel.Marked(env.Space, o, 3) {
				r.marked = append(r.marked, o)
			}
		}
		return r
	}
	a, b := run(), run()
	if a.objects == 0 || len(a.marked) == 0 {
		t.Fatal("marked nothing")
	}
	if a.clock != b.clock || a.objects != b.objects || a.bytes != b.bytes || a.rounds != b.rounds {
		t.Errorf("clock/objects/bytes/rounds (%d,%d,%d,%d) != (%d,%d,%d,%d)",
			b.clock, b.objects, b.bytes, b.rounds, a.clock, a.objects, a.bytes, a.rounds)
	}
	if !slices.Equal(a.marked, b.marked) {
		t.Error("marked sets differ between two runs")
	}
}

// TestMarkDeferredEdges checks that deferred edges are evacuated in slot
// order and that evacuation-pushed work seeds the next round.
func TestMarkDeferredEdges(t *testing.T) {
	env := testEnv(t)
	env.Counters = trace.NewCounters()
	m := NewMature(&Base{E: env})
	node := env.Types.Scalar("dnode", 8, 0, 1)
	var objs []objmodel.Ref
	for i := 0; i < 6; i++ {
		o := m.AllocMature(node, 0, env.HeapPages, 0)
		if o == mem.Nil {
			t.Fatal("alloc failed")
		}
		objs = append(objs, o)
	}
	// objs[0..2] form the "mature" seeds; objs[3..5] play the nursery:
	// every seed points at a nursery object, one shared.
	deferSet := map[objmodel.Ref]bool{objs[3]: true, objs[4]: true, objs[5]: true}
	env.Space.WriteAddr(node.RefSlotAddr(objs[0], 0), objs[4])
	env.Space.WriteAddr(node.RefSlotAddr(objs[1], 0), objs[3])
	env.Space.WriteAddr(node.RefSlotAddr(objs[2], 0), objs[4]) // shared target

	var order []mem.Addr
	evacuated := map[objmodel.Ref]bool{}
	cfg := &MarkConfig{
		Epoch: 9,
		Classify: func(tgt objmodel.Ref) EdgeAction {
			if deferSet[tgt] {
				return EdgeDefer
			}
			return EdgeMark
		},
	}
	var work WorkList
	for _, o := range objs[:3] {
		MarkStep(env, &work, o, 9)
	}
	env.Marker().Mark(cfg, &work, func(e DeferredEdge, w *WorkList) {
		order = append(order, e.Slot)
		if !evacuated[e.Target] {
			evacuated[e.Target] = true
			// Mark in place and rescan, standing in for a real copy.
			MarkStep(env, w, e.Target, 9)
		}
	})
	if !sort.SliceIsSorted(order, func(i, j int) bool { return order[i] < order[j] }) {
		t.Fatalf("deferred edges out of slot order: %v", order)
	}
	if len(order) != 3 {
		t.Fatalf("expected 3 deferred edges, got %d", len(order))
	}
	for _, o := range []objmodel.Ref{objs[3], objs[4]} {
		if !objmodel.Marked(env.Space, o, 9) {
			t.Fatalf("evacuated target %#x not marked by follow-on round", o)
		}
	}
	if objmodel.Marked(env.Space, objs[5], 9) {
		t.Fatal("unreferenced nursery object was marked")
	}
	if env.Counters.Get(trace.CMarkRounds) < 2 {
		t.Fatalf("evacuation did not seed a second round: rounds=%d", env.Counters.Get(trace.CMarkRounds))
	}
}
