package gc

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/objmodel"
	"bookmarkgc/internal/trace"
	"bookmarkgc/internal/vmm"
)

func TestDequeEmpty(t *testing.T) {
	d := NewDeque()
	if _, ok := d.Pop(); ok {
		t.Fatal("pop of empty deque succeeded")
	}
	if _, ok, contended := d.Steal(); ok || contended {
		t.Fatal("steal of empty deque succeeded or reported contention")
	}
	if d.Size() != 0 {
		t.Fatalf("Size = %d", d.Size())
	}
}

func TestDequeOrdering(t *testing.T) {
	d := NewDeque()
	for i := 1; i <= 5; i++ {
		d.Push(objmodel.Ref(i * 8))
	}
	// Owner pops LIFO from the bottom.
	if o, ok := d.Pop(); !ok || o != 5*8 {
		t.Fatalf("Pop = %#x", o)
	}
	// Thieves take FIFO from the top.
	if o, ok, _ := d.Steal(); !ok || o != 1*8 {
		t.Fatalf("Steal = %#x", o)
	}
	if d.Size() != 3 {
		t.Fatalf("Size = %d", d.Size())
	}
}

func TestDequeGrow(t *testing.T) {
	d := NewDeque()
	const n = minDequeCap * 5
	for i := 1; i <= n; i++ {
		d.Push(objmodel.Ref(i * 8))
	}
	if d.Size() != n {
		t.Fatalf("Size = %d after grow", d.Size())
	}
	for i := n; i >= 1; i-- {
		o, ok := d.Pop()
		if !ok || o != objmodel.Ref(i*8) {
			t.Fatalf("Pop %d = %#x, ok=%v", i, o, ok)
		}
	}
}

func TestDequeStealBatchTakesHalf(t *testing.T) {
	d := NewDeque()
	for i := 1; i <= 10; i++ {
		d.Push(objmodel.Ref(i * 8))
	}
	var got []objmodel.Ref
	taken, contended := d.StealBatch(func(o objmodel.Ref) { got = append(got, o) }, markStealMax)
	if contended {
		t.Fatal("uncontended batch reported contention")
	}
	if taken != 5 || len(got) != 5 {
		t.Fatalf("taken = %d (%v)", taken, got)
	}
	if got[0] != 1*8 || got[4] != 5*8 {
		t.Fatalf("batch not FIFO: %v", got)
	}
	if d.Size() != 5 {
		t.Fatalf("victim Size = %d", d.Size())
	}
}

// TestDequeOwnerThiefRace hammers the size-1 window: an owner pushing
// and popping while a thief steals. Every pushed element must be taken
// exactly once — the conservation check fails on both loss and
// duplication. Run with -race to check the memory model too.
func TestDequeOwnerThiefRace(t *testing.T) {
	d := NewDeque()
	const n = 20000
	var thiefSum uint64
	var ownerSum uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			if o, ok, _ := d.Steal(); ok {
				thiefSum += uint64(o)
				continue
			}
			select {
			case <-stop:
				for {
					o, ok, _ := d.Steal()
					if !ok {
						return
					}
					thiefSum += uint64(o)
				}
			default:
			}
		}
	}()
	var want uint64
	for i := 1; i <= n; i++ {
		// Refs must be word-aligned: the deque stores word-index handles.
		d.Push(objmodel.Ref(i) * mem.WordSize)
		want += uint64(i) * mem.WordSize
		// Pop every few pushes so the deque keeps crossing size 1 and 0,
		// exercising the owner/thief CAS on the final element.
		if i%3 == 0 {
			if o, ok := d.Pop(); ok {
				ownerSum += uint64(o)
			}
		}
	}
	for {
		o, ok := d.Pop()
		if !ok {
			break
		}
		ownerSum += uint64(o)
	}
	close(stop)
	wg.Wait()
	if ownerSum+thiefSum != want {
		t.Fatalf("conservation violated: owner %d + thief %d != %d", ownerSum, thiefSum, want)
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
