package gc

import (
	"cmp"
	"slices"

	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/objmodel"
	"bookmarkgc/internal/trace"
)

// Mark engine (DESIGN.md §11). The marker traces the heap through the
// Space's uncharged accessors — PeekWord, and PokeWord for the mark bit
// — so no access runs the VMM or advances the simulated clock while a
// round traces. It tallies every logical word access per page instead.
// When a round's gray set is exhausted the tally is replayed against the
// Space in ascending page order via Proc.TouchN, so faults, evictions
// and clock advance happen once per round, in an order that is a pure
// function of the marked graph. Edges the collector defers are then
// processed in slot order, and what they push seeds the next round.
//
// Uncharged access is sound because eviction preserves a page's backing
// words (swap is content-preserving: PeekWord reads an evicted page's
// stored record, and PokeWord gives the page its body back; only
// Discard drops words, and discards target empty pages), and because
// the mutator is stopped: while a round traces, the only heap writes are
// the marker's own mark bits.

// EdgeAction is a collector's verdict on one scanned edge.
type EdgeAction uint8

const (
	// EdgeMark traces the target in place (mark bit + queue for scan).
	EdgeMark EdgeAction = iota
	// EdgeSkip ignores the edge (e.g. the target's page is evicted).
	EdgeSkip
	// EdgeDefer records the edge for evacuation between rounds (e.g.
	// the target must be copied out of the nursery).
	EdgeDefer
)

// DeferredEdge is a slot→target edge postponed to the evacuation step.
// Slots are unique (each object is scanned once), so sorting by slot
// gives deferred edges a canonical processing order.
type DeferredEdge struct {
	Slot   mem.Addr
	Target objmodel.Ref
}

// MarkConfig adapts the engine to one collector's full-heap trace. The
// callbacks run while a round traces and must only read state that is
// frozen until the round ends (page bitmaps, nursery bounds); the engine
// guarantees all mutation — touch replay and evacuation — happens
// between rounds.
type MarkConfig struct {
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

// Marker is the reusable engine bound to one Env. Obtain it with
// Env.Marker(); its scratch persists across collections.
type Marker struct {
	env *Env

	// touch[pg] is the logical word-access count charged to pg this
	// round, and touched lists the pages with nonzero counts. touched
	// and deferred are the running mark's buffers, from freeTouched and
	// freeDeferred.
	touch    []uint32
	touched  []mem.PageID
	deferred []DeferredEdge

	objects uint64
	bytes   uint64
}

// charge records n logical word accesses to page pg.
func (m *Marker) charge(pg mem.PageID, n uint32) {
	if m.touch[pg] == 0 {
		m.touched = append(m.touched, pg)
	}
	m.touch[pg] += n
}

// Mark drains work to completion in rounds. Each round traces the
// EdgeMark-closure of the current seeds, replays the touch tally
// canonically, then evacuates deferred edges via evacuate (which may
// push follow-on work, as may any VMM handler that fires during replay —
// both seed the next round). Counters are flushed once at the end.
func (m *Marker) Mark(cfg *MarkConfig, work *WorkList, evacuate func(e DeferredEdge, work *WorkList)) {
	outerTouched, outer := m.touched, m.deferred
	m.touched, _ = freeTouched.GetLargest(func(t []mem.PageID) int { return cap(t) })
	m.deferred, _ = freeDeferred.GetLargest(func(d []DeferredEdge) int { return cap(d) })
	var rounds uint64
	for work.Len() > 0 {
		rounds++
		for o, ok := work.Pop(); ok; o, ok = work.Pop() {
			if cfg.SkipObj == nil || !cfg.SkipObj(o) {
				m.scan(cfg, work, o)
			}
		}
		m.replay()
		m.evacuate(work, evacuate)
	}
	c := m.env.Counters
	c.Add(trace.CMarkRounds, rounds)
	c.Add(trace.CMarkObjects, m.objects)
	c.Add(trace.CMarkBytes, m.bytes)
	m.objects, m.bytes = 0, 0
	freeTouched.Put(m.touched)
	freeDeferred.Put(m.deferred)
	m.touched, m.deferred = outerTouched, outer
}

// freeTouched and freeDeferred hold the touched-page and deferred-edge
// buffers of finished marks, shared by every environment. A mark takes
// the largest of each and returns them when it ends, so the buffers
// number the most marks ever in progress at once (a fleet's tenants
// collect one at a time), and the buffers the largest mark so far has
// grown serve every later one.
var (
	freeTouched  mem.FreeList[[]mem.PageID]
	freeDeferred mem.FreeList[[]DeferredEdge]
)

// scan visits o's reference slots, charging accesses exactly as the
// sequential trace would: one read for the header type word, one per
// slot read, one per mark check, and a read+write for a new mark.
func (m *Marker) scan(cfg *MarkConfig, work *WorkList, o objmodel.Ref) {
	s := m.env.Space
	t, n := objmodel.TypeOfRaw(s, m.env.Types, o)
	m.charge((o + mem.WordSize).Page(), 1)
	m.objects++
	m.bytes += mem.RoundUpWord(uint64(t.TotalBytes(n)))
	for i := 0; i < t.NumRefSlots(n); i++ {
		slot := t.RefSlotAddr(o, i)
		if cfg.SlotOK != nil && !cfg.SlotOK(slot) {
			continue
		}
		m.charge(slot.Page(), 1)
		tgt := objmodel.Ref(s.PeekWord(slot))
		if tgt == mem.Nil {
			continue
		}
		action := EdgeMark
		if cfg.Classify != nil {
			action = cfg.Classify(tgt)
		}
		switch action {
		case EdgeSkip:
		case EdgeDefer:
			m.deferred = append(m.deferred, DeferredEdge{Slot: slot, Target: tgt})
		default:
			m.charge(tgt.Page(), 1)
			if objmodel.MarkRaw(s, tgt, cfg.Epoch) {
				m.charge(tgt.Page(), 2)
				work.Push(tgt)
			}
		}
	}
}

// replay applies the round's touch tally to the Space in ascending page
// order: one full Touch per page (fault path and all) plus a batched
// clock advance for the remaining accesses.
func (m *Marker) replay() {
	slices.Sort(m.touched)
	for _, pg := range m.touched {
		m.env.Proc.TouchN(pg, uint64(m.touch[pg]), true)
		m.touch[pg] = 0
	}
	m.touched = m.touched[:0]
}

// evacuate processes the round's deferred edges in slot order.
func (m *Marker) evacuate(work *WorkList, fn func(e DeferredEdge, work *WorkList)) {
	slices.SortFunc(m.deferred, func(a, b DeferredEdge) int { return cmp.Compare(a.Slot, b.Slot) })
	if fn != nil {
		for _, e := range m.deferred {
			fn(e, work)
		}
	}
	m.deferred = m.deferred[:0]
}
