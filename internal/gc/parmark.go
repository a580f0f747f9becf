package gc

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/objmodel"
	"bookmarkgc/internal/trace"
)

// Parallel mark engine (DESIGN.md §11). Workers trace the heap through a
// mem.AtomicView — raw atomic loads and mark-bit CASes that never touch
// the VMM or the simulated clock — while every logical word access is
// tallied per worker, per page. After the workers join, the tallies are
// merged and replayed against the Space in ascending page order via
// Proc.TouchN, so faults, evictions, and clock advance happen exactly
// once per round in an order that is a pure function of the marked
// graph. That is what makes the simulation bit-identical for any
// -mark-workers value: the marked set is schedule-independent (exactly
// one TryMark winner per object), the per-page access counts are
// graph-determined, and every order-dependent side effect (touch replay,
// deferred-edge evacuation) runs sequentially in canonical order.
//
// Work distribution is a Chase–Lev deque per worker with steal-half
// balancing; termination is a global pending counter incremented before
// every push and decremented after the corresponding scan completes, so
// pending==0 means no gray object exists anywhere — a stale "deques all
// looked empty" observation can never end a round early.

// defaultMarkWorkers holds the process-wide worker count applied to new
// environments; zero means unset, which is one worker. Marking is a few
// percent of host time at every scale this repository runs and two
// workers have never been faster than one on it (the repository
// benchmark's gc.mark_speedup_2w is 0.48–0.94 on every workload), so
// parallel marking is something a caller asks for, not the default.
var defaultMarkWorkers atomic.Int64

// SetDefaultMarkWorkers sets the mark worker count new environments
// start with (the CLIs call this once from their -mark-workers flag).
// Values below 1 reset to the default of one worker.
func SetDefaultMarkWorkers(n int) {
	if n < 1 {
		n = 0
	}
	defaultMarkWorkers.Store(int64(n))
}

// DefaultMarkWorkers returns the current default mark worker count.
func DefaultMarkWorkers() int {
	if n := defaultMarkWorkers.Load(); n > 0 {
		return int(n)
	}
	return 1
}

// EdgeAction is a collector's verdict on one scanned edge.
type EdgeAction uint8

const (
	// EdgeMark traces the target in place (mark bit + queue for scan).
	EdgeMark EdgeAction = iota
	// EdgeSkip ignores the edge (e.g. the target's page is evicted).
	EdgeSkip
	// EdgeDefer records the edge for sequential evacuation between
	// rounds (e.g. the target must be copied out of the nursery).
	EdgeDefer
)

// DeferredEdge is a slot→target edge postponed to the sequential
// evacuation step. Slots are unique (each object is scanned once), so
// sorting by slot gives deferred edges a canonical processing order.
type DeferredEdge struct {
	Slot   mem.Addr
	Target objmodel.Ref
}

// ParMarkConfig adapts the engine to one collector's full-heap trace.
// The callbacks run concurrently on worker goroutines and must only read
// state that is frozen for the duration of a round (page bitmaps,
// nursery bounds); the engine guarantees all mutation — touch replay and
// evacuation — happens between rounds.
type ParMarkConfig struct {
	// Epoch is the mark epoch to stamp.
	Epoch uint32
	// SlotOK filters slots before they are read (nil = read all). A
	// rejected slot costs nothing, matching the sequential scan.
	SlotOK func(slot mem.Addr) bool
	// Classify decides what to do with a non-nil target (nil = EdgeMark
	// for every edge).
	Classify func(target objmodel.Ref) EdgeAction
	// SkipObj drops a queued object unscanned (nil = scan all); BC uses
	// it for objects whose page was evicted while they were gray.
	SkipObj func(o objmodel.Ref) bool
}

// markStealMax bounds how many elements one steal-half batch takes.
const markStealMax = 32

// markWorker is one tracing goroutine's private state. The touch tally
// is sparse: touch[pg] is the logical word-access count charged to pg
// this round, and touched lists the pages with nonzero counts.
type markWorker struct {
	id      int
	deque   *Deque
	touch   []uint32
	touched []mem.PageID

	deferred []DeferredEdge

	objects    uint64
	bytes      uint64
	steals     uint64
	stealFails uint64
	termSpins  uint64
}

// charge records n logical word accesses to page pg.
func (w *markWorker) charge(pg mem.PageID, n uint32) {
	if w.touch[pg] == 0 {
		w.touched = append(w.touched, pg)
	}
	w.touch[pg] += n
}

// roundState is the shared context of one parallel round.
type roundState struct {
	cfg     *ParMarkConfig
	view    *mem.AtomicView
	types   *objmodel.Table
	pending atomic.Int64
	workers []*markWorker
}

// scan visits o's reference slots, charging accesses exactly as the
// sequential trace would: one read for the header type word, one per
// slot read, one per mark check, and a read+write for the winning mark.
func (w *markWorker) scan(r *roundState, o objmodel.Ref) {
	t, n := objmodel.TypeOfRaw(r.view, r.types, o)
	w.charge((o + mem.WordSize).Page(), 1)
	w.objects++
	w.bytes += mem.RoundUpWord(uint64(t.TotalBytes(n)))
	for i := 0; i < t.NumRefSlots(n); i++ {
		slot := t.RefSlotAddr(o, i)
		if r.cfg.SlotOK != nil && !r.cfg.SlotOK(slot) {
			continue
		}
		w.charge(slot.Page(), 1)
		tgt := objmodel.Ref(r.view.Load(slot))
		if tgt == mem.Nil {
			continue
		}
		action := EdgeMark
		if r.cfg.Classify != nil {
			action = r.cfg.Classify(tgt)
		}
		switch action {
		case EdgeSkip:
		case EdgeDefer:
			w.deferred = append(w.deferred, DeferredEdge{Slot: slot, Target: tgt})
		default:
			w.charge(tgt.Page(), 1)
			if !objmodel.MarkedRaw(r.view, tgt, r.cfg.Epoch) &&
				objmodel.TryMark(r.view, tgt, r.cfg.Epoch) {
				w.charge(tgt.Page(), 2)
				r.pending.Add(1)
				w.deque.Push(tgt)
			}
		}
	}
}

// stealWork sweeps the other workers' deques, moving up to half of one
// victim's work into w's own deque and returning the first element.
func (w *markWorker) stealWork(r *roundState) (objmodel.Ref, bool) {
	n := len(r.workers)
	for k := 1; k < n; k++ {
		v := r.workers[(w.id+k)%n]
		taken, _ := v.deque.StealBatch(w.deque.Push, markStealMax)
		if taken > 0 {
			w.steals += uint64(taken)
			return w.deque.Pop()
		}
		w.stealFails++
	}
	return mem.Nil, false
}

// run drains work until the round is globally quiescent. With one worker
// this is an ordinary sequential loop (no stealing, no spinning), which
// is why -mark-workers 1 needs no separate code path.
func (w *markWorker) run(r *roundState) {
	for {
		o, ok := w.deque.Pop()
		if !ok {
			o, ok = w.stealWork(r)
		}
		if !ok {
			if r.pending.Load() == 0 {
				return
			}
			w.termSpins++
			runtime.Gosched()
			continue
		}
		if r.cfg.SkipObj == nil || !r.cfg.SkipObj(o) {
			w.scan(r, o)
		}
		r.pending.Add(-1)
	}
}

// ParMarker is the reusable engine bound to one Env. Obtain it with
// Env.Marker(); worker state persists across collections.
type ParMarker struct {
	env     *Env
	workers []*markWorker

	// replay merge and evacuation scratch, reused across rounds.
	total []uint32
	pages []mem.PageID
	edges []DeferredEdge
	round roundState
}

// NewParMarker builds an engine with n workers over env. The deques carry
// 32-bit word-index handles (see Deque), so the space must fit
// objmodel.MaxHandleSpace — any simulated heap does by orders of
// magnitude, but the bound is enforced rather than assumed.
func NewParMarker(env *Env, n int) *ParMarker {
	if n < 1 {
		n = 1
	}
	if size := uint64(env.Space.Pages()) * mem.PageSize; size > objmodel.MaxHandleSpace {
		panic(fmt.Sprintf("gc: space size %d exceeds the %d-byte handle range", size, objmodel.MaxHandleSpace))
	}
	npg := env.Space.Pages()
	m := &ParMarker{env: env, total: make([]uint32, npg)}
	for i := 0; i < n; i++ {
		m.workers = append(m.workers, &markWorker{
			id:    i,
			deque: NewDeque(),
			touch: make([]uint32, npg),
		})
	}
	return m
}

// Workers returns the engine's worker count.
func (m *ParMarker) Workers() int { return len(m.workers) }

// Mark drains work to completion in rounds. Each round traces the
// EdgeMark-closure of the current seeds in parallel, replays the touch
// tallies canonically, then evacuates deferred edges sequentially via
// evacuate (which may push follow-on work, as may any VMM handler that
// fires during replay — both seed the next round). Counters are flushed
// once at the end.
func (m *ParMarker) Mark(cfg *ParMarkConfig, work *WorkList, evacuate func(e DeferredEdge, work *WorkList)) {
	var rounds uint64
	for work.Len() > 0 {
		rounds++
		seeds := work.Drain()
		// Reuse the round scratch: pending is back to zero when a round
		// ends, so only the per-round fields need refreshing.
		r := &m.round
		r.cfg, r.view, r.types, r.workers = cfg, m.env.Space.View(), m.env.Types, m.workers
		for i, o := range seeds {
			w := m.workers[i%len(m.workers)]
			r.pending.Add(1)
			w.deque.Push(o)
		}
		if len(m.workers) == 1 {
			m.workers[0].run(r)
		} else {
			var wg sync.WaitGroup
			for _, w := range m.workers {
				wg.Add(1)
				go func(w *markWorker) {
					defer wg.Done()
					w.run(r)
				}(w)
			}
			wg.Wait()
		}
		m.replay()
		m.evacuate(work, evacuate)
	}
	m.flushCounters(rounds)
}

// replay merges the workers' touch tallies and applies them to the
// Space in ascending page order: one full Touch per page (fault path
// and all) plus a batched clock advance for the remaining accesses.
func (m *ParMarker) replay() {
	for _, w := range m.workers {
		for _, pg := range w.touched {
			if m.total[pg] == 0 {
				m.pages = append(m.pages, pg)
			}
			m.total[pg] += w.touch[pg]
			w.touch[pg] = 0
		}
		w.touched = w.touched[:0]
	}
	slices.Sort(m.pages)
	for _, pg := range m.pages {
		m.env.Proc.TouchN(pg, uint64(m.total[pg]), true)
		m.total[pg] = 0
	}
	m.pages = m.pages[:0]
}

// evacuate processes the round's deferred edges in slot order.
func (m *ParMarker) evacuate(work *WorkList, fn func(e DeferredEdge, work *WorkList)) {
	edges := m.edges[:0]
	for _, w := range m.workers {
		edges = append(edges, w.deferred...)
		w.deferred = w.deferred[:0]
	}
	m.edges = edges
	if len(edges) == 0 {
		return
	}
	slices.SortFunc(edges, func(a, b DeferredEdge) int {
		switch {
		case a.Slot < b.Slot:
			return -1
		case a.Slot > b.Slot:
			return 1
		}
		return 0
	})
	for _, e := range edges {
		if fn != nil {
			fn(e, work)
		}
	}
}

// flushCounters moves the workers' per-collection tallies into the
// registry and resets them. The graph totals (rounds, objects, bytes)
// are deterministic for any worker count; the scheduling ones are not
// and stay out of experiment reports.
func (m *ParMarker) flushCounters(rounds uint64) {
	c := m.env.Counters
	c.Add(trace.CMarkRounds, rounds)
	for i, w := range m.workers {
		c.Add(trace.CMarkObjects, w.objects)
		c.Add(trace.CMarkBytes, w.bytes)
		c.Add(trace.CMarkSteals, w.steals)
		c.Add(trace.CMarkStealFails, w.stealFails)
		c.Add(trace.CMarkTermRounds, w.termSpins)
		c.AddVec(trace.VMarkBytesByWorker, i, w.bytes)
		w.objects, w.bytes, w.steals, w.stealFails, w.termSpins = 0, 0, 0, 0, 0
	}
}
