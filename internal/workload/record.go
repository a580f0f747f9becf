package workload

import "bookmarkgc/internal/mutator"

// Recorder captures a generator's event stream to a Writer. It
// implements mutator.Sink, so attaching it (sim.RunConfig.Sink) records
// any spec program without perturbing the run: observation happens on
// the host, never on the simulated machine.
//
// The recorder folds each allocation and its fate (mutator.Sink's
// protocol: Alloc is immediately followed by RootAdd/RootSet when the
// object survives) into a single opAlloc event, assigns implicit
// sequential object IDs, and emits advisory opFree hints when a
// temporary drops dead or a root-slot store retires its previous
// occupant — the lifetime ground truth stat and the synthesizer models
// are calibrated against.
type Recorder struct {
	w *Writer

	pending  bool // an Alloc awaiting its fate
	pShape   mutator.Shape
	pHasInit bool
	pInitIdx int
	pInitVal uint64

	nextID  uint64   // next object ID (1-based)
	slotObj []uint64 // root slot -> live object ID (0 = none)
}

// NewRecorder wraps w. Counter wiring rides on w.Counters.
func NewRecorder(w *Writer) *Recorder {
	return &Recorder{w: w, nextID: 1}
}

func (r *Recorder) setSlot(slot int, id uint64) {
	for len(r.slotObj) <= slot {
		r.slotObj = append(r.slotObj, 0)
	}
	if old := r.slotObj[slot]; old != 0 {
		r.w.Free(old)
	}
	r.slotObj[slot] = id
}

// flushPending emits a pending allocation as a temporary (no root ever
// held it), plus its immediate death hint.
func (r *Recorder) flushPending() {
	if !r.pending {
		return
	}
	r.pending = false
	r.w.Alloc(r.pShape, destNone, 0, r.pHasInit, r.pInitIdx, r.pInitVal)
	r.w.Free(r.nextID - 1)
}

// Alloc implements mutator.Sink.
func (r *Recorder) Alloc(kind byte, words int, hasInit bool, initIdx int, initVal uint64) {
	r.flushPending()
	r.pending = true
	r.pShape = mutator.Shape{Kind: kind, Words: words}
	r.pHasInit, r.pInitIdx, r.pInitVal = hasInit, initIdx, initVal
	r.nextID++
}

// RootAdd implements mutator.Sink.
func (r *Recorder) RootAdd(slot int) {
	if !r.pending {
		return // protocol misuse; nothing to attribute the slot to
	}
	r.pending = false
	r.w.Alloc(r.pShape, destAdd, slot, r.pHasInit, r.pInitIdx, r.pInitVal)
	r.setSlot(slot, r.nextID-1)
}

// RootSet implements mutator.Sink.
func (r *Recorder) RootSet(slot int) {
	if !r.pending {
		return
	}
	r.pending = false
	r.w.Alloc(r.pShape, destSet, slot, r.pHasInit, r.pInitIdx, r.pInitVal)
	r.setSlot(slot, r.nextID-1)
}

// RootAddNil implements mutator.Sink.
func (r *Recorder) RootAddNil(slot int) {
	r.flushPending()
	r.w.RootNil(slot)
	r.setSlot(slot, 0)
}

// Work implements mutator.Sink.
func (r *Recorder) Work(slot, readIdx int, write bool, writeIdx int) {
	r.flushPending()
	r.w.Work(slot, readIdx, write, writeIdx)
}

// Link implements mutator.Sink.
func (r *Recorder) Link(srcSlot, dstSlot int, hasWrite bool, refIdx int) {
	r.flushPending()
	r.w.Link(srcSlot, dstSlot, hasWrite, refIdx)
}

// StepEnd implements mutator.Sink.
func (r *Recorder) StepEnd() {
	r.flushPending()
	r.w.StepEnd()
}

// Close writes the footer from the finished run's summary. Call it
// exactly once, after the simulation completes.
func (r *Recorder) Close(res mutator.Result) error {
	r.flushPending()
	return r.w.End(Footer{
		Allocs:      res.Allocations,
		Bytes:       res.AllocatedBytes,
		HasChecksum: true,
		Checksum:    res.Checksum,
	})
}
