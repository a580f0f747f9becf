package workload

import (
	"fmt"
	"io"
	"math/rand"
	"strings"

	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/mutator"
)

// SynthParams parameterizes a synthesized trace. It is a pure value
// with stable JSON field names: fleet tenant specs embed it, and runner
// jobs hash the encoding.
type SynthParams struct {
	// Model is one of Models: "markov", "ramp", or "frag".
	Model string `json:"model"`
	// Allocs is the number of allocation iterations to emit.
	Allocs int `json:"allocs,omitempty"`
	// Live is the live-set target in objects; each model interprets it
	// as its steady-state (markov), peak (ramp), or pin stride base
	// (frag) scale.
	Live int   `json:"live,omitempty"`
	Seed int64 `json:"seed,omitempty"`
	// Name labels the trace; empty defaults to the model name.
	Name string `json:"name,omitempty"`
}

// Synthesize writes a complete trace for params to w. The emitted
// stream honours every invariant Verify checks (slot discipline, index
// bounds, free-hint sanity), so synthesized traces replay under any
// collector exactly like recorded ones — they just describe programs
// the spec table cannot express: Markov lifetime chains, phase-shifted
// live-set ramps, and adversarial fragmentation/pinning patterns that
// stress bookmarking and the compactor's choice of target superpages.
func Synthesize(w io.Writer, p SynthParams) error {
	_, err := synthesize(w, p)
	return err
}

// synthesize is Synthesize, and returns the meta block it wrote.
func synthesize(w io.Writer, p SynthParams) (Meta, error) {
	if p.Allocs <= 0 {
		p.Allocs = 100_000
	}
	if p.Live <= 0 {
		p.Live = 1_000
	}
	if p.Name == "" {
		p.Name = p.Model
	}
	var gen func(*synthState)
	var model map[string]float64
	switch p.Model {
	case "markov":
		gen = synthMarkov
		model = map[string]float64{"allocs": float64(p.Allocs), "live": float64(p.Live)}
	case "ramp":
		gen = synthRamp
		model = map[string]float64{"allocs": float64(p.Allocs), "peak": float64(p.Live), "phases": rampPhases}
	case "frag":
		gen = synthFrag
		model = map[string]float64{"allocs": float64(p.Allocs), "live": float64(p.Live), "pin_stride": fragPinStride}
	default:
		return Meta{}, fmt.Errorf("workload: unknown synth model %q (models: %s)", p.Model, strings.Join(Models, ", "))
	}
	meta := Meta{
		FormatVersion: Version,
		Name:          p.Name,
		Source:        "synth:" + p.Model,
		Seed:          p.Seed,
		Model:         model,
	}
	wr, err := NewWriter(w, meta)
	if err != nil {
		return Meta{}, err
	}
	st := newSynthState(wr, p)
	defer st.release()
	gen(st)
	// Synthesizers cannot know the data checksum a replay will compute
	// without simulating the heap, so the footer omits it; readers still
	// verify the totals.
	return meta, wr.End(Footer{Allocs: st.allocs, Bytes: st.bytes})
}

// synthState tracks the synthetic program's live set, mirroring the
// replayer's root-slot discipline (gc.Roots' LIFO free list) so every
// emitted slot index matches what Roots will hand out on replay. Its
// generator and tables outlive the synthesis: the next one reuses them
// (freeSynthStates).
type synthState struct {
	w   *Writer
	p   SynthParams
	rng *rand.Rand

	slots vmodel
	live  []int // in-use slots, for O(1) random picks
	pos   []int // slot -> index in live, for in-use slots

	// The slot releases each iteration has due, in the order they were
	// queued: the first and last slot due at an iteration (-1: none),
	// and for each queued slot the next one due at the same iteration.
	dueFirst, dueLast, dueNext []int32

	nextID uint64
	allocs uint64
	bytes  uint64
}

// freeSynthStates holds the states of finished syntheses.
var freeSynthStates mem.FreeList[*synthState]

// newSynthState returns an empty state for p writing to w, reseeding a
// finished synthesis's generator and reusing its tables if there is one.
func newSynthState(w *Writer, p SynthParams) *synthState {
	st, ok := freeSynthStates.Get()
	if !ok {
		return &synthState{w: w, p: p, rng: rand.New(rand.NewSource(p.Seed)), nextID: 1}
	}
	st.rng.Seed(p.Seed)
	*st = synthState{w: w, p: p, rng: st.rng, nextID: 1,
		slots: vmodel{slots: st.slots.slots[:0], free: st.slots.free[:0]},
		live:  st.live[:0], pos: st.pos[:0],
		dueFirst: st.dueFirst[:0], dueLast: st.dueLast[:0], dueNext: st.dueNext[:0]}
	return st
}

// release hands the state to the next synthesis.
func (s *synthState) release() {
	s.w = nil
	freeSynthStates.Put(s)
}

// due queues slot's release at iteration at.
func (s *synthState) due(at, slot int) {
	for len(s.dueNext) <= slot {
		s.dueNext = append(s.dueNext, -1)
	}
	s.dueNext[slot] = -1
	if last := s.dueLast[at]; last >= 0 {
		s.dueNext[last] = int32(slot)
	} else {
		s.dueFirst[at] = int32(slot)
	}
	s.dueLast[at] = int32(slot)
}

func (s *synthState) account(sh mutator.Shape) {
	s.allocs++
	s.bytes += uint64(sh.Bytes())
	s.nextID++
}

// allocTemp emits an allocation no root keeps, dead on arrival.
func (s *synthState) allocTemp(sh mutator.Shape) {
	hasInit, initIdx := s.initFor(sh)
	s.w.Alloc(sh, destNone, 0, hasInit, initIdx, s.rng.Uint64())
	s.w.Free(s.nextID)
	s.account(sh)
}

// allocSurvive emits an allocation rooted in a fresh slot.
func (s *synthState) allocSurvive(sh mutator.Shape) int {
	slot := s.slots.add()
	sl, _ := s.slots.get(slot)
	*sl = vslot{inUse: true, hasObj: true, shape: sh, id: s.nextID}
	hasInit, initIdx := s.initFor(sh)
	s.w.Alloc(sh, destAdd, slot, hasInit, initIdx, s.rng.Uint64())
	s.account(sh)
	for len(s.pos) <= slot {
		s.pos = append(s.pos, 0)
	}
	s.pos[slot] = len(s.live)
	s.live = append(s.live, slot)
	return slot
}

// releaseSlot kills the object in slot and returns the root.
func (s *synthState) releaseSlot(slot int) {
	sl, _ := s.slots.get(slot)
	s.w.Release(slot)
	s.w.Free(sl.id)
	s.slots.release(slot)
	i := s.pos[slot]
	last := s.live[len(s.live)-1]
	s.live[i] = last
	s.pos[last] = i
	s.live = s.live[:len(s.live)-1]
}

func (s *synthState) randomLive() (int, *vslot) {
	slot := s.live[s.rng.Intn(len(s.live))]
	sl, _ := s.slots.get(slot)
	return slot, sl
}

// work emits n data accesses on random live objects, every fourth a
// read-modify-write — the generator's rhythm.
func (s *synthState) work(n int) {
	for w := 0; w < n && len(s.live) > 0; w++ {
		slot, sl := s.randomLive()
		ri := s.draw(sl.shape.WorkWords())
		if w&3 == 0 {
			s.w.Work(slot, ri, true, s.draw(sl.shape.WorkWords()))
		} else {
			s.w.Work(slot, ri, false, 0)
		}
	}
}

// link emits one pointer store between random live objects (or the
// header-read-only event when the source is pointer-free).
func (s *synthState) link() {
	if len(s.live) < 2 {
		return
	}
	ss, src := s.randomLive()
	ds, _ := s.randomLive()
	if n := src.shape.RefSlots(); n > 0 {
		s.w.Link(ss, ds, true, s.rng.Intn(n))
	} else {
		s.w.Link(ss, ds, false, 0)
	}
}

// linkTo stores dst into a specific source's random ref slot.
func (s *synthState) linkTo(srcSlot, dstSlot int) {
	src, _ := s.slots.get(srcSlot)
	if n := src.shape.RefSlots(); n > 0 {
		s.w.Link(srcSlot, dstSlot, true, s.rng.Intn(n))
	}
}

// initFor draws the word an allocation's init write touches, if the
// shape has a data word.
func (s *synthState) initFor(sh mutator.Shape) (bool, int) {
	lo, n := sh.DataWords()
	if n == 0 {
		return false, 0
	}
	return true, s.draw(lo, n)
}

// draw returns a word of [lo, lo+n); a sole candidate takes no draw.
func (s *synthState) draw(lo, n int) int {
	if n == 1 {
		return lo
	}
	return lo + s.rng.Intn(n)
}

// pickShape draws the object mix shared by markov and ramp: mostly
// nodes, some mid-size data arrays, a sprinkle of reference arrays.
func pickShape(rng *rand.Rand) mutator.Shape {
	switch x := rng.Intn(100); {
	case x < 78:
		return mutator.NodeShape
	case x < 95:
		return mutator.Shape{Kind: mutator.AllocDataArr, Words: 8 + rng.Intn(56)}
	default:
		return mutator.Shape{Kind: mutator.AllocRefArr, Words: 4 + rng.Intn(12)}
	}
}

// synthMarkov drives lifetimes from a three-state Markov chain (die-now
// / short / long) whose self-bias produces the bursty, phase-correlated
// death clustering independent per-object draws cannot: stretches of
// nursery fodder interleaved with waves of mid-life objects dying
// together — the promotion-then-mass-death pattern that punishes
// generational heaps.
func synthMarkov(s *synthState) {
	// Rows: transition probabilities (percent) from state 0/1/2.
	trans := [3][3]int{
		{70, 95, 100}, // temp: mostly stays temp
		{35, 90, 100}, // short
		{20, 40, 100}, // long
	}
	state := 1
	for range s.p.Allocs {
		s.dueFirst = append(s.dueFirst, -1)
		s.dueLast = append(s.dueLast, -1)
	}
	for i := 0; i < s.p.Allocs; i++ {
		for slot := s.dueFirst[i]; slot >= 0; {
			next := s.dueNext[slot]
			s.releaseSlot(int(slot))
			slot = next
		}

		x := s.rng.Intn(100)
		row := trans[state]
		switch {
		case x < row[0]:
			state = 0
		case x < row[1]:
			state = 1
		default:
			state = 2
		}
		sh := pickShape(s.rng)
		if state == 0 {
			s.allocTemp(sh)
		} else {
			slot := s.allocSurvive(sh)
			life := 1 + s.rng.Intn(s.p.Live)
			if state == 2 {
				life = s.p.Live*4 + s.rng.Intn(s.p.Live*8)
			}
			if at := i + life; at < s.p.Allocs {
				s.due(at, slot)
			}
		}
		s.work(2)
		if i%16 == 0 {
			s.link()
		}
		s.w.StepEnd()
	}
}

const rampPhases = 4

// synthRamp phase-shifts the live set through sawtooth ramps: grow
// linearly to the peak, then shed three quarters of the survivors in a
// burst and climb again. Collectors that size the heap from a trailing
// live estimate (and the paper's own resize heuristics) see their
// assumptions invalidated at every phase boundary.
func synthRamp(s *synthState) {
	peak := s.p.Live
	trough := peak/4 + 1
	phaseLen := s.p.Allocs / rampPhases
	if phaseLen < 1 {
		phaseLen = 1
	}
	for i := 0; i < s.p.Allocs; i++ {
		pos := i % phaseLen
		if pos == 0 && i > 0 {
			// Phase boundary: burst-release down to the trough.
			for len(s.live) > trough {
				slot := s.live[s.rng.Intn(len(s.live))]
				s.releaseSlot(slot)
			}
		}
		target := trough + (peak-trough)*pos/phaseLen
		sh := pickShape(s.rng)
		if len(s.live) < target {
			s.allocSurvive(sh)
		} else {
			s.allocTemp(sh)
		}
		s.work(2)
		if i%8 == 0 {
			s.link()
		}
		s.w.StepEnd()
	}
}

const (
	fragPinStride = 16
	fragBatch     = 48
	fragArrWords  = 64
)

// synthFrag is the adversary: it fills runs of pages with same-sized
// arrays, then frees all but every sixteenth — pinning nearly-empty
// superpages — and threads pointers between the pinned survivors of
// different batches, so evicting or compacting any page risks breaking
// a cross-page edge. This is the worst case for the compactor's target
// selection and the bookmarking machinery both.
func synthFrag(s *synthState) {
	var oldNodes []int // pinned node slots from earlier batches
	for i := 0; i < s.p.Allocs; {
		var arrs, nodes []int
		for b := 0; b < fragBatch && i < s.p.Allocs; b++ {
			if b%8 == 7 {
				nodes = append(nodes, s.allocSurvive(mutator.NodeShape))
			} else {
				arrs = append(arrs, s.allocSurvive(mutator.Shape{Kind: mutator.AllocDataArr, Words: fragArrWords}))
			}
			s.work(1)
			s.w.StepEnd()
			i++
		}
		// Retire the batch, pinning every fragPinStride-th array in
		// place — dense pages become sparse, never empty.
		for j, slot := range arrs {
			if j%fragPinStride != 0 {
				s.releaseSlot(slot)
			}
		}
		// Cross-batch pointers between the pinned survivors.
		for _, ns := range nodes {
			if len(oldNodes) > 0 {
				s.linkTo(ns, oldNodes[s.rng.Intn(len(oldNodes))])
			}
		}
		oldNodes = append(oldNodes, nodes...)
		// Keep the pinned node population bounded by the live target.
		for len(oldNodes) > s.p.Live {
			s.releaseSlot(oldNodes[0])
			oldNodes = oldNodes[1:]
		}
	}
}
