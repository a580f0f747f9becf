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
// bracket, the out-of-memory error, the allocation slow path and the
// collection cycle.
type Base struct {
	E *Env
	// Ladder is the collector's allocation slow path and collections,
	// set once by its constructor when its spaces exist.
	Ladder Ladder
	self   Collector
	roots  Roots
	stats  Stats
	epoch  uint32

	// afterGC, when set, runs at the end of every collection
	// (OnCollectionEnd).
	afterGC func()
}

// Placer puts a fresh object of total bytes (small: a size class holds
// it) where a collector allocates, within its budget, or returns mem.Nil.
type Placer func(t *objmodel.Type, arrayLen, total int, small bool) objmodel.Ref

// Ladder is what a collector declares, once, for Base.Alloc and
// Base.Collect to run: where a fresh object goes, what to do when it
// does not fit, and its collections.
type Ladder struct {
	Place Placer
	// Rungs are tried in order, one after each failed placement; nil
	// means a young collection, then a full one (Base.Collect).
	Rungs []func()
	// Young, when set, is the young-only collection; nil means every
	// collection is full.
	Young func()
	// Room, with Young, is the young space's Appel share after Young:
	// at MinNurseryPages or below, the collection goes on to Full.
	Room func() int
	// Full is the whole-heap collection.
	Full func()
	// Live, when set, is the footprint that must fit HeapPages once a
	// collection is done.
	Live func() int
	// Grow, when set, resizes the young space to its share: after every
	// collection, and when the heap policy's target rose.
	Grow func()
	// Climbed, when set, runs once an allocation that needed a rung has
	// been placed, counted and ticked (GenMSAdvisor's heap advice).
	Climbed func()
	// OOM, when set, is the panic value once no rung is left, for a
	// request of need bytes; by default the error names the configured
	// heap.
	OOM func(need int) ErrOutOfMemory
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

// Alloc implements the corresponding Collector method; it is every
// collector's one allocation retry loop. It places the object as the
// collector's Ladder says, counts it and gives the heap policy its
// mutator observation (its Wants gate keeps that nearly free), growing
// the collector when the target rose. After a failed placement it climbs
// one rung and tries again, and it panics out of memory when no rung is
// left.
func (b *Base) Alloc(t *objmodel.Type, arrayLen int) objmodel.Ref {
	l := &b.Ladder
	total := t.TotalBytes(arrayLen)
	_, small := b.E.Classes.ForSize(total)
	for attempt := 0; ; attempt++ {
		if o := l.Place(t, arrayLen, total, small); o != mem.Nil {
			b.CountAlloc(t, arrayLen)
			if from, to := ObserveHeapPolicy(b.self, heappolicy.EvMutator, -1); to > from && l.Grow != nil {
				l.Grow()
			}
			if attempt > 0 && l.Climbed != nil {
				l.Climbed()
			}
			return o
		}
		switch {
		case attempt < len(l.Rungs):
			l.Rungs[attempt]()
		case l.Rungs == nil && attempt < 2:
			// Base's cycle, not the collector's Collect: GenMSAdvisor
			// advises once the allocation is done, never between rungs.
			b.Collect(attempt == 1)
		default:
			b.outOfMemory(total)
		}
	}
}

// Collect implements the corresponding Collector method; it is every
// collector's one collection cycle. A young collection that leaves the
// young space no more than MinNurseryPages goes on to a full one (the
// Appel trigger: the mature space owns the heap). Live data past the
// configured heap is out of memory. The heap policy observes the
// collection's end outside the pause, so it sees the collection's own
// cost, and the collector then grows into its new share.
func (b *Base) Collect(full bool) {
	l := &b.Ladder
	if full || l.Young == nil {
		l.Full()
	} else {
		l.Young()
		if l.Room() <= MinNurseryPages {
			l.Full()
		}
	}
	if l.Live != nil && l.Live() > b.E.HeapPages {
		panic(b.OOM(b.E.HeapPages))
	}
	ObserveHeapPolicy(b.self, heappolicy.EvGCEnd, -1)
	if l.Grow != nil {
		l.Grow()
	}
}

// outOfMemory panics for a request of need bytes that no rung could
// place, with the ladder's error if it has one.
func (b *Base) outOfMemory(need int) {
	if b.Ladder.OOM != nil {
		panic(b.Ladder.OOM(need))
	}
	panic(b.OOM(b.E.HeapPages))
}

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
// the simulated clock and the collection is counted. The entry is on the
// timeline before the span ends, so a tracer that sees the End (the
// telemetry attribution) reads the pause from the timeline.
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
		b.stats.Timeline.Record(metrics.Pause{
			Start:       start,
			Dur:         env.Clock.Now() - start,
			Kind:        kind,
			MajorFaults: env.Proc.Stats().MajorFaults - faults,
		})
		env.Trace.End(phase)
	}
}

// OnCollectionEnd registers fn to run at the end of every collection —
// nursery, full, and BC's compaction and fail-safe — once the heap and
// the collector's books are settled, but within the pause. Harnesses use
// it to check invariants after each collection; fn must not allocate
// through the collector.
func (b *Base) OnCollectionEnd(fn func()) { b.afterGC = fn }

// CollectionDone fires the OnCollectionEnd hook: every collection calls
// it as its last step.
func (b *Base) CollectionDone() {
	if b.afterGC != nil {
		b.afterGC()
	}
}

// OOM builds the panic value for live data that does not fit: heapPages
// is the budget the collector was held to.
func (b *Base) OOM(heapPages int) ErrOutOfMemory {
	return ErrOutOfMemory{Collector: b.self.Name(), HeapPages: heapPages}
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
