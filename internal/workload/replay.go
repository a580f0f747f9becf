package workload

import (
	"io"
	"os"

	"bookmarkgc/internal/gc"
	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/mutator"
	"bookmarkgc/internal/objmodel"
	"bookmarkgc/internal/trace"
)

// Replayer drives a collector from a trace, implementing
// mutator.Workload so sim.Run and sim.RunFleet accept it anywhere the
// spec-driven generator goes. It re-issues the recorded sequence of
// collector calls — allocations, root operations, header reads, data
// reads/writes, pointer stores — so the simulated machine sees the
// identical access stream the original run produced: execution time,
// fault counts, and pause distributions reproduce bit-for-bit. Memory
// use is constant: one trace block at a time.
//
// The replayer cross-checks the trace as it goes (root slots must land
// where the recorder saw them; every allocation, access and store must
// fit the shape rules Verify applies, mutator.Shape; the footer totals
// and data checksum must match), so a divergence — corrupt trace or
// heap corruption — fails loudly, before a bad store, instead of
// skewing measurements. Quantum semantics match mutator.Run.Step: one quantum
// unit is one allocation iteration (opStepEnd).
type Replayer struct {
	c     gc.Collector
	types mutator.Types
	rd    *Reader
	spec  mutator.Spec
	ctrs  *trace.Counters

	// closer, when set, is closed once the replay finishes or fails
	// (the file a FileSource opened).
	closer io.Closer

	err      error
	done     bool
	allocd   uint64
	nAllocs  uint64
	checksum uint64
}

// NewReplayer binds a trace stream to one collector instance. Types
// must be the standard set declared on the collector's environment.
// Counters, if enabled on the environment, receive the workload group.
func NewReplayer(rd *Reader, c gc.Collector, types mutator.Types) *Replayer {
	spec := mutator.Spec{Name: rd.Meta().Name}
	if p := rd.Meta().Program; p != nil {
		spec = *p
	}
	rp := &Replayer{c: c, types: types, rd: rd, spec: spec}
	if env := c.Env(); env != nil {
		rp.ctrs = env.Counters
		rd.Counters = env.Counters
	}
	return rp
}

// Meta returns the trace's self-description.
func (rp *Replayer) Meta() Meta { return rp.rd.Meta() }

func (rp *Replayer) fail(err error) {
	rp.err = err
	rp.finish()
}

func (rp *Replayer) finish() {
	if !rp.done {
		rp.rd.release()
	}
	rp.done = true
	if rp.closer != nil {
		rp.closer.Close()
		rp.closer = nil
	}
}

// Step implements mutator.Workload: it applies events until quantum
// allocation iterations complete or the trace ends. False means the
// replay is over — successfully, or with Err set.
func (rp *Replayer) Step(quantum int) bool {
	if rp.done {
		return false
	}
	steps := 0
	var ev event
	for steps < quantum {
		if err := rp.rd.next(&ev); err != nil {
			rp.fail(err)
			return false
		}
		if ev.op == opEnd {
			rp.checkFooter(ev.footer)
			return false
		}
		if err := rp.apply(&ev); err != nil {
			rp.fail(err)
			return false
		}
		if ev.op == opStepEnd {
			steps++
		}
	}
	return true
}

// checkFooter verifies the run totals and — for recorded traces — the
// data checksum, then finishes the replay.
func (rp *Replayer) checkFooter(f Footer) {
	switch {
	case f.Allocs != rp.nAllocs || f.Bytes != rp.allocd:
		rp.fail(corrupt("footer totals (%d allocs, %d bytes) disagree with replay (%d, %d)",
			f.Allocs, f.Bytes, rp.nAllocs, rp.allocd))
	case f.HasChecksum && f.Checksum != rp.checksum:
		// Not a framing problem: the heap returned different data than
		// the recording run read — the differential oracle tripping.
		rp.fail(corrupt("replay checksum %#x != recorded %#x (heap divergence)",
			rp.checksum, f.Checksum))
	default:
		rp.finish()
	}
}

// rootObj fetches the object in the root slot a trace event addresses,
// rejecting a slot the trace never made and, unless nilOK, an empty one
// (corruption, not a crash).
func (rp *Replayer) rootObj(slot int, nilOK bool) (objmodel.Ref, error) {
	roots := rp.c.Roots()
	if slot >= roots.Len() {
		return mem.Nil, corrupt("root slot %d out of range (%d live)", slot, roots.Len())
	}
	o := roots.Get(slot)
	if o == mem.Nil && !nilOK {
		return mem.Nil, corrupt("root slot %d is empty", slot)
	}
	return o, nil
}

// shapeOf reads o's header as the recorded run did — the read touches
// the header page, so it is part of the access stream — and returns the
// object's shape.
func (rp *Replayer) shapeOf(o objmodel.Ref) mutator.Shape {
	env := rp.c.Env()
	return rp.types.ShapeOf(env.Types.TypeOf(env.Space, o))
}

func (rp *Replayer) apply(ev *event) error {
	rp.ctrs.Inc(trace.CWorkloadEventsReplayed)
	switch ev.op {
	case opAlloc:
		if err := allocErr(ev); err != nil {
			return err
		}
		o := rp.c.Alloc(rp.types.TypeFor(ev.shape))
		if ev.hasInit {
			rp.c.WriteData(o, ev.initIdx, ev.initVal)
		}
		rp.allocd += uint64(ev.shape.Bytes())
		rp.nAllocs++
		rp.ctrs.Inc(trace.CWorkloadAllocsReplayed)
		switch ev.dest {
		case destAdd:
			if s := rp.c.Roots().Add(o); s != ev.destSlot {
				return corrupt("root slot divergence: trace says %d, Roots returned %d", ev.destSlot, s)
			}
		case destSet:
			if _, err := rp.rootObj(ev.destSlot, true); err != nil {
				return err
			}
			rp.c.Roots().Set(ev.destSlot, o)
		}
	case opWorkR, opWorkRW:
		obj, err := rp.rootObj(ev.slot, false)
		if err != nil {
			return err
		}
		if sh := rp.shapeOf(obj); !sh.WorkOK(ev.readIdx) {
			return badWork(sh, "read", ev.readIdx)
		}
		v := rp.c.ReadData(obj, ev.readIdx)
		rp.checksum = rp.checksum*31 + v
		if ev.op == opWorkRW {
			if sh := rp.shapeOf(obj); !sh.WorkOK(ev.writeIdx) {
				return badWork(sh, "write", ev.writeIdx)
			}
			rp.c.WriteData(obj, ev.writeIdx, v+1)
		}
	case opLink, opLinkNop:
		src, err := rp.rootObj(ev.srcSlot, false)
		if err != nil {
			return err
		}
		// A link-nop stores nothing, so its destination may be empty.
		dst, err := rp.rootObj(ev.dstSlot, ev.op == opLinkNop)
		if err != nil {
			return err
		}
		// The recorded run read the source's header (refSlots) either
		// way; a link-nop found no reference slot and stored nothing.
		if err := linkErr(ev, rp.shapeOf(src)); err != nil {
			return err
		}
		if ev.op == opLink {
			rp.c.WriteRef(src, ev.refIdx, dst)
		}
	case opStepEnd:
	case opFree:
		rp.ctrs.Inc(trace.CWorkloadFreeHints)
	case opRelease:
		if _, err := rp.rootObj(ev.slot, true); err != nil {
			return err
		}
		rp.c.Roots().Release(ev.slot)
	case opRootNil:
		if s := rp.c.Roots().Add(mem.Nil); s != ev.slot {
			return corrupt("root slot divergence: trace says %d, Roots returned %d", ev.slot, s)
		}
	}
	return nil
}

// Done implements mutator.Workload.
func (rp *Replayer) Done() bool { return rp.done }

// Err implements mutator.Workload: the trace failure, if any.
func (rp *Replayer) Err() error { return rp.err }

// Finish implements mutator.Workload. For recorded traces the Spec (and
// so the whole mutator.Result) matches the original run's exactly.
func (rp *Replayer) Finish() mutator.Result {
	rp.finish() // release the file even if the run died mid-replay
	return mutator.Result{
		Spec:           rp.spec,
		AllocatedBytes: rp.allocd,
		Allocations:    rp.nAllocs,
		Checksum:       rp.checksum,
	}
}

// FileSource opens a trace file per workload instantiation — the
// mutator.Source a RunConfig or runner job plugs in where a Spec would
// go. Each NewWorkload call opens its own reader, so multi-JVM runs can
// replay one file concurrently.
type FileSource struct {
	Path string
	meta Meta
}

// Open validates the file's header and captures its Meta.
func Open(path string) (*FileSource, error) {
	meta, err := ReadMeta(path)
	if err != nil {
		return nil, err
	}
	return &FileSource{Path: path, meta: meta}, nil
}

// Meta returns the trace's self-description.
func (f *FileSource) Meta() Meta { return f.meta }

// NewWorkload implements mutator.Source. The seed is ignored: a trace
// fixes every decision the seed would have driven.
func (f *FileSource) NewWorkload(c gc.Collector, types mutator.Types, seed int64) (mutator.Workload, error) {
	fh, err := os.Open(f.Path)
	if err != nil {
		return nil, err
	}
	rd, err := NewReader(fh)
	if err != nil {
		fh.Close()
		return nil, err
	}
	rp := NewReplayer(rd, c, types)
	rp.closer = fh
	return rp, nil
}
