package gc

import (
	"time"

	"bookmarkgc/internal/heap"
	"bookmarkgc/internal/heappolicy"
	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/metrics"
	"bookmarkgc/internal/objmodel"
)

// PauseOverhead is the fixed per-collection cost (thread stopping, root
// enumeration setup) charged to the simulated clock.
const PauseOverhead = 100 * time.Microsecond

// MinNurseryPages is the smallest useful nursery; when Appel-style sizing
// would go below it, a full collection runs instead.
const MinNurseryPages = 64 // 256 KB

// Base carries the plumbing every collector shares: environment, roots,
// statistics, the mark epoch, barrier-free object access, the pause
// bracket, the out-of-memory error and the heap policy's mutator tick.
type Base struct {
	E     *Env
	self  Collector
	roots Roots
	stats Stats
	epoch uint32
}

// Init binds the Base to its environment and to the collector embedding
// it: self is who an out-of-memory error names and whom the heap policy
// observes.
func (b *Base) Init(env *Env, self Collector) { b.E, b.self = env, self }

// Direct exposes the embedded Base. Data-word access carries no barrier
// in any collector (barriers interpose on reference stores only), so
// workload engines may devirtualize their per-access ReadData/WriteData
// calls through this — the simulated access sequence is identical, only
// the host-side interface dispatch goes away.
func (b *Base) Direct() *Base { return b }

// Roots implements the corresponding Collector method.
func (b *Base) Roots() *Roots { return &b.roots }

// Stats implements the corresponding Collector method.
func (b *Base) Stats() *Stats { return &b.stats }

// Env implements the corresponding Collector method.
func (b *Base) Env() *Env { return b.E }

// CountAlloc records an allocation in the stats.
func (b *Base) CountAlloc(t *objmodel.Type, arrayLen int) {
	b.stats.BytesAlloc += uint64(t.TotalBytes(arrayLen))
	b.stats.ObjectsAlloc++
}

// ReadRef implements the corresponding Collector method: no collector
// here has a read barrier.
func (b *Base) ReadRef(o objmodel.Ref, i int) objmodel.Ref {
	t, _ := b.E.Types.TypeOf(b.E.Space, o)
	return b.E.Space.ReadAddr(t.RefSlotAddr(o, i))
}

// WriteRefRaw stores into reference slot i of o with no barrier and
// returns the slot address (for barriers layered above).
func (b *Base) WriteRefRaw(o objmodel.Ref, i int, v objmodel.Ref) mem.Addr {
	t, _ := b.E.Types.TypeOf(b.E.Space, o)
	slot := t.RefSlotAddr(o, i)
	b.E.Space.WriteAddr(slot, v)
	return slot
}

// DataAddr returns the address of payload word d of o.
func DataAddr(o objmodel.Ref, d int) mem.Addr {
	return objmodel.Payload(o) + mem.Addr(d)*mem.WordSize
}

// ReadData implements the corresponding Collector method.
func (b *Base) ReadData(o objmodel.Ref, d int) uint64 {
	return b.E.Space.ReadWord(DataAddr(o, d))
}

// WriteData implements the corresponding Collector method.
func (b *Base) WriteData(o objmodel.Ref, d int, v uint64) {
	b.E.Space.WriteWord(DataAddr(o, d), v)
}

// NextEpoch advances the mark epoch, skipping zero (the "never marked"
// value fresh headers carry).
func (b *Base) NextEpoch() uint32 {
	b.epoch++
	if b.epoch == 0 || b.epoch > objmodel.MaxEpoch {
		b.epoch = 1
	}
	return b.epoch
}

// Epoch returns the current mark epoch.
func (b *Base) Epoch() uint32 { return b.epoch }

// Pause opens a stop-the-world collection of the given kind and returns
// the func that closes it (defer it: an out-of-memory unwind must still
// close the pause). The interval becomes a timeline entry, with the major
// faults taken inside it, and a trace span enclosing whatever phase spans
// the collector opens; the fixed per-collection overhead is charged to
// the simulated clock and the collection is counted.
func (b *Base) Pause(kind metrics.PauseKind) func() {
	env := b.E
	phase, count := kind.Phase(), &b.stats.Full
	switch kind {
	case metrics.PauseNursery:
		count = &b.stats.Nursery
	case metrics.PauseCompact:
		count = &b.stats.Compactions
	}
	start := env.Clock.Now()
	faults := env.Proc.Stats().MajorFaults
	env.Trace.Begin(phase)
	env.Clock.Advance(PauseOverhead)
	*count++
	return func() {
		env.Trace.End(phase)
		b.stats.Timeline.Record(metrics.Pause{
			Start:       start,
			Dur:         env.Clock.Now() - start,
			Kind:        kind,
			MajorFaults: env.Proc.Stats().MajorFaults - faults,
		})
	}
}

// OOM builds the panic value for live data that does not fit: heapPages
// is the budget the collector was held to.
func (b *Base) OOM(heapPages int) ErrOutOfMemory {
	return ErrOutOfMemory{Collector: b.self.Name(), HeapPages: heapPages}
}

// PolicyTick gives the heap policy its mutator observation and reports
// whether it raised the target, which a collector with a nursery applies
// at once by resizing it. The policy's Wants gate keeps the tick nearly
// free for policies that ignore the mutator.
func (b *Base) PolicyTick() bool {
	from, to := ObserveHeapPolicy(b.self, heappolicy.EvMutator, -1)
	return to > from
}

// MoveObject is the only copy-and-forward: o's size bytes are copied to
// dst through the space (both pages touched and charged exactly like the
// word-by-word loop) and o is left forwarding to dst. The caller queues
// dst for scanning once it has finished with it: BC's eviction handler
// can fire inside any heap access and inject mark work, so where the
// push falls among the accesses is part of the simulated order.
func MoveObject(s *mem.Space, o, dst objmodel.Ref, size int) {
	CopyObject(s, o, dst, size)
	objmodel.Forward(s, o, dst)
}

// CopyTo evacuates o into the bump space dst, once: an object already
// forwarded answers with its new address. The copying collectors'
// semispaces and GenCopy's promotion go through it.
func (b *Base) CopyTo(dst *heap.BumpSpace, o objmodel.Ref, work *WorkList) objmodel.Ref {
	s := b.E.Space
	if objmodel.Forwarded(s, o) {
		return objmodel.ForwardAddr(s, o)
	}
	size := ObjectBytes(s, b.E.Types, o)
	nw := dst.AllocRaw(size)
	if nw == mem.Nil {
		panic(b.OOM(b.E.HeapPages))
	}
	MoveObject(s, o, nw, size)
	work.Push(nw)
	return nw
}

// MarkStep marks target in epoch if unmarked and pushes it for scanning.
func MarkStep(env *Env, work *WorkList, target objmodel.Ref, epoch uint32) {
	if objmodel.MarkIfUnmarked(env.Space, target, epoch) {
		work.Push(target)
	}
}

// Drain scans gray objects until none remain, handing every non-nil
// reference to visit — the loop of a Cheney pass, where visit forwards
// the target and may push what it copied.
func Drain(env *Env, work *WorkList, visit func(slot mem.Addr, target objmodel.Ref)) {
	for {
		o, ok := work.Pop()
		if !ok {
			return
		}
		ScanObject(env.Space, env.Types, o, visit)
	}
}

// MarkTrace drains the worklist, scanning each object and marking its
// targets. follow filters which targets to pursue (nil = all).
func MarkTrace(env *Env, work *WorkList, epoch uint32, follow func(objmodel.Ref) bool) {
	Drain(env, work, func(_ mem.Addr, tgt objmodel.Ref) {
		if follow != nil && !follow(tgt) {
			return
		}
		MarkStep(env, work, tgt, epoch)
	})
}
