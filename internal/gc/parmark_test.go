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
// ever allocated, and the root) with the sequential MarkTrace and then
// with the engine at each worker count, on one heap. The marked set and
// the number of objects the engine scanned must equal the reference's:
// a gray object dropped at a deal or a join leaves its count (and what
// only it reaches) short, one duplicated is scanned twice. It returns
// the counters of the last (8-worker) pass.
func checkAgainstMarkTrace(t *testing.T, heapBytes uint64, build func(env *Env, m *Mature) (all []objmodel.Ref, root objmodel.Ref)) *trace.Counters {
	t.Helper()
	env := NewEnv(vmm.New(vmm.NewClock(), 4*heapBytes, vmm.DefaultCosts()), "gc-test", heapBytes)
	m := NewMature(&Base{E: env})
	all, root := build(env, &m)

	// The header holds one epoch, so snapshot the reference's verdicts
	// before the engine re-marks at later epochs.
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

	for i, workers := range []int{1, 2, 8} {
		epoch := uint32(i + 2)
		env.Counters = trace.NewCounters()
		MarkStep(env, &work, root, epoch)
		NewParMarker(env, workers).Mark(&ParMarkConfig{Epoch: epoch}, &work, nil)
		for j, o := range all {
			if got := objmodel.Marked(env.Space, o, epoch); got != ref[j] {
				t.Fatalf("workers=%d: object %d of %d: MarkTrace=%v engine=%v", workers, j, len(all), ref[j], got)
			}
		}
		if got := env.Counters.Get(trace.CMarkObjects); got != want {
			t.Fatalf("workers=%d: engine scanned %d objects, MarkTrace marked %d", workers, got, want)
		}
	}
	return env.Counters
}

// TestParMarkChain: a 50k-node list never has more than one gray
// object, so no worker count ever has anything to deal; the round must
// still terminate with the whole chain marked.
func TestParMarkChain(t *testing.T) {
	checkAgainstMarkTrace(t, 8<<20, func(env *Env, m *Mature) ([]objmodel.Ref, objmodel.Ref) {
		node := env.Types.Scalar("cnode", 2, 0)
		all := allocNodes(t, m, node, 0, 50000)
		for i := 1; i < len(all); i++ {
			env.Space.WriteAddr(node.RefSlotAddr(all[i-1], 0), all[i])
		}
		return all, all[0]
	})
}

// TestParMarkFanOut: one root array pointing at 4096 short chains. The
// first scan makes thousands of objects gray at once, so a deal must
// reach every one of eight workers.
func TestParMarkFanOut(t *testing.T) {
	c := checkAgainstMarkTrace(t, 8<<20, func(env *Env, m *Mature) ([]objmodel.Ref, objmodel.Ref) {
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
	byWorker := c.VecValues(trace.VMarkBytesByWorker)
	if len(byWorker) != 8 {
		t.Fatalf("mark_bytes_by_worker has %d entries, want 8", len(byWorker))
	}
	for w, b := range byWorker {
		if b == 0 {
			t.Errorf("worker %d of 8 scanned nothing: the fan-out was never dealt", w)
		}
	}
}

// TestParMarkLeftover: a complete binary tree too large for eight
// workers to finish in one deal. A worker that stops after markDeal
// objects of a depth-first walk leaves their unvisited siblings on its
// stack, so the join moves leftovers from several stacks and the next
// deal splits them again.
func TestParMarkLeftover(t *testing.T) {
	checkAgainstMarkTrace(t, 32<<20, func(env *Env, m *Mature) ([]objmodel.Ref, objmodel.Ref) {
		node := env.Types.Scalar("tnode", 2, 0, 1)
		all := allocNodes(t, m, node, 0, 16*markDeal-1)
		for i := 1; i < len(all); i++ {
			env.Space.WriteAddr(node.RefSlotAddr(all[(i-1)/2], (i-1)%2), all[i])
		}
		return all, all[0]
	})
}

// TestParMarkFilters runs the three callbacks BC's in-memory trace sets
// (SlotOK, Classify → EdgeSkip, SkipObj) over a random graph with a
// quarter of its pages declared off limits, at 1, 2 and 8 workers: the
// marked set, the graph totals and the simulated clock must not depend
// on the worker count, and nothing on a forbidden page may be marked.
func TestParMarkFilters(t *testing.T) {
	type result struct {
		clock          int64
		objects, bytes uint64
		marked         []objmodel.Ref
	}
	run := func(workers int) result {
		env := testEnv(t)
		env.Counters = trace.NewCounters()
		m := NewMature(&Base{E: env})
		all, root := buildRandomGraph(t, env, &m, 4000, 11)
		ok := func(pg mem.PageID) bool { return pg%4 != 3 || pg == root.Page() }
		cfg := &ParMarkConfig{
			Epoch:  4,
			SlotOK: func(slot mem.Addr) bool { return ok(slot.Page()) },
			Classify: func(tgt objmodel.Ref) EdgeAction {
				if !ok(tgt.Page()) {
					return EdgeSkip
				}
				return EdgeMark
			},
			// Stricter than Classify, as when a page is evicted while
			// objects on it are gray.
			SkipObj: func(o objmodel.Ref) bool { return o.Page()%8 == 5 && o != root },
		}
		var work WorkList
		MarkStep(env, &work, root, 4)
		NewParMarker(env, workers).Mark(cfg, &work, nil)
		r := result{
			clock:   int64(env.Clock.Now()),
			objects: env.Counters.Get(trace.CMarkObjects),
			bytes:   env.Counters.Get(trace.CMarkBytes),
		}
		for _, o := range all {
			if objmodel.Marked(env.Space, o, 4) {
				if !ok(o.Page()) {
					t.Fatalf("workers=%d: %#x marked on a forbidden page", workers, o)
				}
				r.marked = append(r.marked, o)
			}
		}
		return r
	}
	base := run(1)
	if len(base.marked) < 100 || uint64(len(base.marked)) <= base.objects {
		t.Fatalf("filters did not bite: %d marked, %d scanned", len(base.marked), base.objects)
	}
	for _, workers := range []int{2, 8} {
		got := run(workers)
		if got.clock != base.clock || got.objects != base.objects || got.bytes != base.bytes {
			t.Errorf("workers=%d: clock/objects/bytes (%d,%d,%d) != (%d,%d,%d)", workers,
				got.clock, got.objects, got.bytes, base.clock, base.objects, base.bytes)
		}
		if !slices.Equal(got.marked, base.marked) {
			t.Errorf("workers=%d: marked set differs from one worker's", workers)
		}
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

// TestParMarkMatchesSequential is the engine's property test: for the
// same random graph, N workers must produce exactly the marked set the
// sequential MarkTrace produces.
func TestParMarkMatchesSequential(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		env := testEnv(t)
		env.Counters = trace.NewCounters()
		m := NewMature(&Base{E: env})
		all, root := buildRandomGraph(t, env, &m, 600, 42)

		// Sequential reference marking at epoch 5. Snapshot the marked
		// set before the parallel pass: the header holds one epoch, so
		// re-marking at epoch 6 erases the epoch-5 verdicts.
		var work WorkList
		MarkStep(env, &work, root, 5)
		MarkTrace(env, &work, 5, nil)
		seq := make([]bool, len(all))
		for i, o := range all {
			seq[i] = objmodel.Marked(env.Space, o, 5)
		}

		// Parallel marking at epoch 6.
		work.Reset()
		MarkStep(env, &work, root, 6)
		NewParMarker(env, workers).Mark(&ParMarkConfig{Epoch: 6}, &work, nil)

		for i, o := range all {
			par := objmodel.Marked(env.Space, o, 6)
			if seq[i] != par {
				t.Fatalf("workers=%d: %#x sequential=%v parallel=%v", workers, o, seq[i], par)
			}
		}
		if env.Counters.Get(trace.CMarkObjects) == 0 {
			t.Fatalf("workers=%d: engine scanned nothing", workers)
		}
	}
}

// TestParMarkDeterminism is the unit-level 1-vs-8 golden check: marked
// set, simulated clock, and graph-total counters must be bit-identical
// for any worker count.
func TestParMarkDeterminism(t *testing.T) {
	type result struct {
		clock   int64
		objects uint64
		bytes   uint64
		rounds  uint64
		marked  []objmodel.Ref
	}
	run := func(workers int) result {
		env := testEnv(t)
		env.Counters = trace.NewCounters()
		m := NewMature(&Base{E: env})
		all, root := buildRandomGraph(t, env, &m, 800, 7)
		var work WorkList
		MarkStep(env, &work, root, 3)
		NewParMarker(env, workers).Mark(&ParMarkConfig{Epoch: 3}, &work, nil)
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
	base := run(1)
	if base.objects == 0 || len(base.marked) == 0 {
		t.Fatal("baseline marked nothing")
	}
	for _, workers := range []int{2, 4, 8} {
		got := run(workers)
		if got.clock != base.clock {
			t.Errorf("workers=%d: clock %d != %d", workers, got.clock, base.clock)
		}
		if got.objects != base.objects || got.bytes != base.bytes || got.rounds != base.rounds {
			t.Errorf("workers=%d: totals (%d,%d,%d) != (%d,%d,%d)", workers,
				got.objects, got.bytes, got.rounds, base.objects, base.bytes, base.rounds)
		}
		if len(got.marked) != len(base.marked) {
			t.Fatalf("workers=%d: %d marked != %d", workers, len(got.marked), len(base.marked))
		}
		for i := range got.marked {
			if got.marked[i] != base.marked[i] {
				t.Fatalf("workers=%d: marked[%d] = %#x != %#x", workers, i, got.marked[i], base.marked[i])
			}
		}
	}
}

// TestParMarkDeferredEdges checks that deferred edges are evacuated
// sequentially in slot order and that evacuation-pushed work seeds the
// next round.
func TestParMarkDeferredEdges(t *testing.T) {
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
	cfg := &ParMarkConfig{
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
	NewParMarker(env, 4).Mark(cfg, &work, func(e DeferredEdge, w *WorkList) {
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

// TestParMarkStress is the -race matrix workload: a large random graph
// traced by many workers, checked against the sequential marked set.
func TestParMarkStress(t *testing.T) {
	n := 20000
	if testing.Short() {
		n = 4000
	}
	env := testEnv(t)
	env.Counters = trace.NewCounters()
	m := NewMature(&Base{E: env})
	all, root := buildRandomGraph(t, env, &m, n, 1234)

	var work WorkList
	MarkStep(env, &work, root, 5)
	MarkTrace(env, &work, 5, nil)
	seq := make([]bool, len(all))
	for i, o := range all {
		seq[i] = objmodel.Marked(env.Space, o, 5)
	}

	work.Reset()
	MarkStep(env, &work, root, 6)
	NewParMarker(env, 8).Mark(&ParMarkConfig{Epoch: 6}, &work, nil)

	for i, o := range all {
		par := objmodel.Marked(env.Space, o, 6)
		if seq[i] != par {
			t.Fatalf("marked set diverged at %#x (index %d of %d): sequential=%v parallel=%v",
				o, i, len(all), seq[i], par)
		}
	}
}

func TestSetDefaultMarkWorkers(t *testing.T) {
	defer SetDefaultMarkWorkers(0)
	SetDefaultMarkWorkers(3)
	if DefaultMarkWorkers() != 3 {
		t.Fatalf("DefaultMarkWorkers = %d", DefaultMarkWorkers())
	}
	clock := vmm.NewClock()
	v := vmm.New(clock, 128<<20, vmm.DefaultCosts())
	env := NewEnv(v, "mw-test", 8<<20)
	if env.MarkWorkers != 3 {
		t.Fatalf("Env.MarkWorkers = %d", env.MarkWorkers)
	}
	if env.Marker().Workers() != 3 {
		t.Fatalf("Marker().Workers() = %d", env.Marker().Workers())
	}
	SetDefaultMarkWorkers(0)
	if DefaultMarkWorkers() != 1 {
		t.Fatalf("unset default = %d workers, want 1", DefaultMarkWorkers())
	}
}
