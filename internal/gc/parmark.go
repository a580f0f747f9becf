package gc

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/objmodel"
	"bookmarkgc/internal/trace"
)

// Mark engine (DESIGN.md §11). Workers trace the heap through a
// mem.AtomicView — raw atomic loads and mark-bit CASes that never touch
// the VMM or the simulated clock — while every logical word access is
// tallied per worker, per page. When a round's gray set is exhausted the
// tallies are merged and replayed against the Space in ascending page
// order via Proc.TouchN, so faults, evictions, and clock advance happen
// exactly once per round in an order that is a pure function of the
// marked graph. That is what makes the simulation bit-identical for any
// -mark-workers value: the marked set is schedule-independent (exactly
// one TryMark winner per object), the per-page access counts are
// graph-determined, and every order-dependent side effect (touch replay,
// deferred-edge evacuation) runs sequentially in canonical order.
//
// Each worker owns a plain stack of gray objects. One worker drains its
// stack depth-first on the caller's goroutine. Several workers run
// fork-join deals: the gray set is split evenly, every worker scans at
// most markDeal objects from its share, and the join gathers what the
// stacks still hold for the next deal. Gray work moves between workers
// only at a join, so the stacks need no synchronisation, and a round is
// over when the join finds every stack empty.

// defaultMarkWorkers holds the process-wide worker count applied to new
// environments; zero means unset, which is one worker. Marking is a few
// percent of host time at every scale this repository runs and its
// heaps are a deal or two, so more workers are something a caller asks
// for, not the default.
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

// markDeal is the most objects one worker scans in one deal. Starting
// and joining the goroutines costs what scanning about a thousand
// objects does (tens of microseconds of futex wake-ups), so a deal has
// to be many thousands long to be worth its fork; the bound is what a
// worker whose share ran dry early waits at the join, about a
// millisecond, before the gray set is split evenly again.
const markDeal = 16384

// markWorker is one tracing goroutine's private state. The touch tally
// is sparse: touch[pg] is the logical word-access count charged to pg
// this round, and touched lists the pages with nonzero counts.
type markWorker struct {
	stack   []objmodel.Ref
	touch   []uint32
	touched []mem.PageID

	deferred []DeferredEdge

	objects uint64
	bytes   uint64
}

// charge records n logical word accesses to page pg.
func (w *markWorker) charge(pg mem.PageID, n uint32) {
	if w.touch[pg] == 0 {
		w.touched = append(w.touched, pg)
	}
	w.touch[pg] += n
}

// roundState is what every worker reads during one round.
type roundState struct {
	cfg   *ParMarkConfig
	view  *mem.AtomicView
	types *objmodel.Table
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
				w.stack = append(w.stack, tgt)
			}
		}
	}
}

// drain pops and scans depth-first until the stack is empty or limit
// objects have been popped.
func (w *markWorker) drain(r *roundState, limit int) {
	for ; limit > 0 && len(w.stack) > 0; limit-- {
		o := w.stack[len(w.stack)-1]
		w.stack = w.stack[:len(w.stack)-1]
		if r.cfg.SkipObj == nil || !r.cfg.SkipObj(o) {
			w.scan(r, o)
		}
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
	wg    sync.WaitGroup // joins one deal
}

// NewParMarker builds an engine with n workers over env.
func NewParMarker(env *Env, n int) *ParMarker {
	if n < 1 {
		n = 1
	}
	npg := env.Space.Pages()
	m := &ParMarker{env: env, total: make([]uint32, npg)}
	for i := 0; i < n; i++ {
		m.workers = append(m.workers, &markWorker{touch: make([]uint32, npg)})
	}
	return m
}

// Workers returns the engine's worker count.
func (m *ParMarker) Workers() int { return len(m.workers) }

// Mark drains work to completion in rounds. Each round traces the
// EdgeMark-closure of the current seeds, replays the touch tallies
// canonically, then evacuates deferred edges sequentially via evacuate
// (which may push follow-on work, as may any VMM handler that fires
// during replay — both seed the next round). Counters are flushed once
// at the end.
func (m *ParMarker) Mark(cfg *ParMarkConfig, work *WorkList, evacuate func(e DeferredEdge, work *WorkList)) {
	w0 := m.workers[0]
	var rounds uint64
	for work.Len() > 0 {
		rounds++
		// A fresh view per round: evacuation and replay change which
		// bodies back the space's pages.
		m.round = roundState{cfg: cfg, view: m.env.Space.View(), types: m.env.Types}
		// Worker 0 traces on the worklist's own buffer, which every run
		// hands on full-grown to the next (ReleaseScratch). Nothing
		// pushes on work until the sequential steps below, and by then it
		// has the buffer back, emptied.
		w0.stack = work.items
		if len(m.workers) == 1 {
			w0.drain(&m.round, math.MaxInt)
		} else {
			m.deal()
		}
		work.items, w0.stack = w0.stack[:0], nil
		m.replay()
		m.evacuate(work, evacuate)
	}
	m.flushCounters(rounds)
}

// deal traces worker 0's stack to exhaustion with every worker. Each
// deal hands every other worker an equal share off the top — no more
// than markDeal objects, since it will pop no more — scans on all of
// them at once, and moves what they still hold back. A gray set with
// fewer objects than workers cannot be shared: worker 0 scans one
// object at a time until it has grown or emptied.
func (m *ParMarker) deal() {
	r, w0, n := &m.round, m.workers[0], len(m.workers)
	for len(w0.stack) > 0 {
		if len(w0.stack) < n {
			w0.drain(r, 1)
			continue
		}
		share := min(len(w0.stack)/n, markDeal)
		for _, w := range m.workers[1:] {
			keep := len(w0.stack) - share
			w.stack = append(w.stack, w0.stack[keep:]...)
			w0.stack = w0.stack[:keep]
			m.wg.Add(1)
			go func() {
				defer m.wg.Done()
				w.drain(r, markDeal)
			}()
		}
		w0.drain(r, markDeal)
		m.wg.Wait()
		for _, w := range m.workers[1:] {
			w0.stack = append(w0.stack, w.stack...)
			w.stack = w.stack[:0]
		}
	}
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
// are deterministic for any worker count; the per-worker split is not
// and stays out of experiment reports.
func (m *ParMarker) flushCounters(rounds uint64) {
	c := m.env.Counters
	c.Add(trace.CMarkRounds, rounds)
	for i, w := range m.workers {
		c.Add(trace.CMarkObjects, w.objects)
		c.Add(trace.CMarkBytes, w.bytes)
		c.AddVec(trace.VMarkBytesByWorker, i, w.bytes)
		w.objects, w.bytes = 0, 0
	}
}
