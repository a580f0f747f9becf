// Package mutator provides the workload engine and the synthetic
// benchmark programs standing in for the paper's suite (Table 1):
// SPECjvm98, two DaCapo benchmarks, and pseudoJBB. Each program is a
// Spec — total allocation volume, live-set target, object size mix,
// pointer density, and per-allocation mutator work — calibrated so the
// first-order statistics (bytes allocated, minimum heap) match Table 1.
//
// The engine drives a gc.Collector through its public interface only, so
// every allocation, field store (write barrier), and data access flows
// through the collector and the simulated VM.
package mutator

import (
	"fmt"
	"sync"

	"bookmarkgc/internal/gc"
	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/objmodel"
)

// SizeBand is one entry of a Spec's object size mix.
type SizeBand struct {
	Weight   int  // relative frequency
	Array    bool // array of data words (else scalar node with 2 refs)
	MinWords int  // payload words
	MaxWords int
}

// Spec describes one synthetic benchmark program.
type Spec struct {
	Name       string
	TotalAlloc uint64 // bytes to allocate over the run (Table 1)
	MinHeap    uint64 // minimum heap the paper reports (Table 1)

	// LiveFrac sets the steady live set as a fraction of MinHeap.
	LiveFrac float64
	// ImmortalFrac is the fraction of the live set allocated up front and
	// never released (pseudoJBB's warehouses).
	ImmortalFrac float64
	// TempFrac is the fraction of allocations that die immediately — the
	// weakly-generational behaviour the suite exhibits.
	TempFrac float64
	// Sizes is the object size mix for pool and temporary objects.
	Sizes []SizeBand
	// LargeEvery > 0 allocates a large (LOS-bound) data array every N
	// allocations, of LargeWords payload words.
	LargeEvery int
	LargeWords int
	// LargeLive > 0 bounds how many large buffers are simultaneously
	// live: surviving large allocations rotate through a ring of this
	// many dedicated root slots (modeling a program that reuses a few
	// I/O buffers) instead of displacing random pool entries, whose
	// open-ended lifetimes would let large garbage pile up in the live
	// set. 0 keeps the legacy pool-displacement behaviour.
	LargeLive int
	// WorkPerAlloc is how many reads/writes of random live objects the
	// mutator performs per allocation — application work that keeps the
	// live set hot in the VMM's eyes and advances simulated time.
	WorkPerAlloc int
	// LinkEvery > 0 stores a reference between two random pool objects
	// every N allocations (exercising the write barrier with old-to-young
	// and old-to-old stores).
	LinkEvery int
}

// Scale returns a copy with allocation volume and live set scaled by f —
// used to shrink runs for tests while preserving their shape.
func (s Spec) Scale(f float64) Spec {
	out := s
	out.TotalAlloc = uint64(float64(s.TotalAlloc) * f)
	out.MinHeap = uint64(float64(s.MinHeap) * f)
	if out.MinHeap < 1<<20 {
		out.MinHeap = 1 << 20
	}
	return out
}

// Validate reports the first reason the generator could not run s: a
// malformed Spec is an error a run returns, not a panic out of its first
// draw.
func (s Spec) Validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("mutator: spec %q: %s", s.Name, fmt.Sprintf(format, args...))
	}
	if len(s.Sizes) == 0 {
		return bad("no size bands")
	}
	total := 0
	for i, b := range s.Sizes {
		if b.Weight < 0 || b.MinWords < 0 || b.MaxWords < b.MinWords {
			return bad("size band %d is %+v: want Weight >= 0 and 0 <= MinWords <= MaxWords", i, b)
		}
		total += b.Weight
	}
	if total <= 0 {
		return bad("size bands have total weight %d", total)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"LiveFrac", s.LiveFrac}, {"ImmortalFrac", s.ImmortalFrac}, {"TempFrac", s.TempFrac}} {
		if !(f.v >= 0 && f.v <= 1) {
			return bad("%s = %v is outside [0, 1]", f.name, f.v)
		}
	}
	for _, n := range []struct {
		name string
		v    int
	}{{"WorkPerAlloc", s.WorkPerAlloc}, {"LinkEvery", s.LinkEvery}, {"LargeEvery", s.LargeEvery}, {"LargeLive", s.LargeLive}} {
		if n.v < 0 {
			return bad("%s = %d is negative", n.name, n.v)
		}
	}
	if s.LargeEvery > 0 && s.LargeWords <= 0 {
		return bad("LargeEvery = %d with LargeWords = %d", s.LargeEvery, s.LargeWords)
	}
	return nil
}

// Types registers the standard object types a run uses.
type Types struct {
	Node    *objmodel.Type // 2 ref slots + 2 data words
	RefArr  *objmodel.Type
	DataArr *objmodel.Type
}

// DeclareTypes gives a fresh environment the workload types. Every
// environment whose table is still empty shares one sealed table of
// them, built once: the descriptors never change, so each run need not
// register its own copies. An environment that already has types of its
// own gets the workload types registered after them.
func DeclareTypes(env *gc.Env) Types {
	if env.Types.Len() > 0 {
		return RegisterTypes(env.Types)
	}
	standard.once.Do(func() {
		standard.table = objmodel.NewTable()
		standard.types = RegisterTypes(standard.table)
		standard.table.Seal()
	})
	env.Types = standard.table
	return standard.types
}

// standard is the shared table DeclareTypes hands to fresh environments.
var standard struct {
	once  sync.Once
	table *objmodel.Table
	types Types
}

// RegisterTypes registers the workload types in tb, for a table that
// takes more types of its own.
func RegisterTypes(tb *objmodel.Table) Types {
	return Types{
		Node:    tb.Scalar("node", NodeWords, 0, 1),
		RefArr:  tb.Array("refs", true),
		DataArr: tb.Array("data", false),
	}
}

// Result summarizes one finished run.
type Result struct {
	Spec           Spec
	AllocatedBytes uint64
	Allocations    uint64
	// Checksum folds every data word the mutator read during its work
	// phases. It depends only on the program and seed — never on the
	// collector — so differing checksums across collectors expose heap
	// corruption (a differential oracle over the whole run).
	Checksum uint64
}

// Run is a step-able execution of a Spec against one collector. Stepping
// in small quanta lets a driver interleave several JVMs and deliver
// simulated-time events between steps.
type Run struct {
	spec  Spec
	c     gc.Collector
	types Types
	rng   rng
	sink  Sink // nil = unobserved

	// Hot-path caches resolved once in NewRun: the root registry, type
	// table, and space never change identity over a run, and data-word
	// access has no barrier in any collector (gc.Base.Direct), so the
	// work loop skips the per-access interface dispatches.
	base  *gc.Base
	roots *gc.Roots
	tt    *objmodel.Table
	space *mem.Space

	bandTW int // total of Spec.Sizes weights
	// The objects the work loop draws from sit in one block of root
	// slots that start appends: the immortal ones from liveBase, then
	// the pool (the block's tail, randomly replaced) from poolBase. The
	// draws' bounds are the block's and the pool's lengths.
	liveBase, poolBase int
	nLive, nPool       divisor
	nodeID, arrID      int32 // types.Node.ID, types.DataArr.ID
	largeRing          []int // root slots rotating large survivors (Spec.LargeLive)
	largeIdx           int
	allocd             uint64
	nAllocs            uint64
	checksum           uint64
	done               bool
	started            bool
}

// NewRun prepares a run of spec on collector c. Types must have been
// declared on c's environment. It reuses a released run if there is one.
func NewRun(spec Spec, c gc.Collector, types Types, seed int64) *Run {
	r, ok := freeRuns.Get()
	if !ok {
		r = new(Run)
	}
	*r = Run{spec: spec, c: c, types: types, base: c.Direct(), roots: c.Roots(),
		nodeID: types.Node.ID, arrID: types.DataArr.ID}
	r.rng.seed(seed)
	for _, b := range spec.Sizes {
		r.bandTW += b.Weight
	}
	env := c.Env()
	r.tt, r.space = env.Types, env.Space
	return r
}

// SetSink attaches an event observer (an allocation-trace recorder).
// Must be called before the first Step.
func (r *Run) SetSink(s Sink) { r.sink = s }

// avgObjBytes estimates the size mix's mean object size.
func (r *Run) avgObjBytes() int {
	ts := 0
	for _, b := range r.spec.Sizes {
		ts += b.Weight * (objmodel.HeaderBytes + (b.MinWords+b.MaxWords)/2*mem.WordSize)
	}
	return ts / r.bandTW
}

// minObjBytes is the size of the mix's smallest object.
func (r *Run) minObjBytes() int {
	least := NodeShape.Bytes()
	for _, b := range r.spec.Sizes {
		if b.Array {
			least = min(least, Shape{AllocDataArr, b.MinWords}.Bytes())
		}
	}
	return least
}

// start allocates the immortal data and sizes the pool.
func (r *Run) start() {
	r.started = true
	live := uint64(float64(r.spec.MinHeap) * r.spec.LiveFrac)
	immortalBytes := uint64(float64(live) * r.spec.ImmortalFrac)
	poolBytes := live - immortalBytes
	n := int(poolBytes / uint64(r.avgObjBytes()))
	if n < 8 {
		n = 8
	}

	// The block's length is random, but no immortal object is smaller
	// than the mix's smallest shape, which bounds it.
	r.roots.Reserve(r.roots.Len() + int(immortalBytes/uint64(r.minObjBytes())) + 1 + n + r.spec.LargeLive)
	r.liveBase = r.roots.Len()
	for b := uint64(0); b < immortalBytes; {
		b += uint64(r.allocOne())
	}
	r.poolBase = r.roots.Len()
	for i := 0; i < n; i++ {
		r.allocOne()
	}
	r.nLive = newDivisor(r.roots.Len() - r.liveBase)
	r.nPool = newDivisor(n)
	if k := r.spec.LargeLive; k > 0 {
		r.largeRing = make([]int, k)
		for i := range r.largeRing {
			r.largeRing[i] = r.roots.Append(mem.Nil)
			if r.sink != nil {
				r.sink.RootAddNil(r.largeRing[i])
			}
		}
	}
}

// allocOne allocates one object from the size mix, fills its data words,
// appends it to the live block and returns its size. The block is the
// registry's tail: Append never reuses a slot a caller freed before the
// program started, so nothing else can land inside it.
func (r *Run) allocOne() (size int) {
	o, sz := r.allocRaw()
	s := r.roots.Append(o)
	if r.sink != nil {
		r.sink.RootAdd(s)
	}
	return sz
}

func (r *Run) pickBand() SizeBand {
	x := r.rng.Intn(r.bandTW)
	for _, b := range r.spec.Sizes {
		if x < b.Weight {
			return b
		}
		x -= b.Weight
	}
	return r.spec.Sizes[0]
}

func (r *Run) allocRaw() (objmodel.Ref, int) {
	b := r.pickBand()
	words := b.MinWords
	if b.MaxWords > b.MinWords {
		words += r.rng.Intn(b.MaxWords - b.MinWords + 1)
	}
	sh := NodeShape
	if b.Array {
		sh = Shape{AllocDataArr, words}
	}
	o := r.c.Alloc(r.types.TypeFor(sh))
	// Initialize the first data word (an application write).
	initIdx, initVal, hasInit := 0, uint64(0), false
	if lo, n := sh.DataWords(); n > 0 {
		initIdx, initVal, hasInit = lo, r.rng.Uint64(), true
		r.c.WriteData(o, initIdx, initVal)
	}
	if r.sink != nil {
		r.sink.Alloc(sh.Kind, sh.Words, hasInit, initIdx, initVal)
	}
	r.allocd += uint64(sh.Bytes())
	r.nAllocs++
	return o, sh.Bytes()
}

// randomLive returns a random live root slot (immortal or pool).
func (r *Run) randomLive() int {
	return r.liveBase + r.rng.intn(r.nLive)
}

// replacePool stores o over a random pool entry.
func (r *Run) replacePool(o objmodel.Ref) {
	slot := r.poolBase + r.rng.intn(r.nPool)
	r.roots.Set(slot, o)
	if r.sink != nil {
		r.sink.RootSet(slot)
	}
}

// Step performs up to quantum allocations (plus their mutator work) and
// reports whether the run still has work left.
func (r *Run) Step(quantum int) bool {
	if r.done {
		return false
	}
	if !r.started {
		r.start()
	}
	for q := 0; q < quantum; q++ {
		if r.allocd >= r.spec.TotalAlloc {
			r.done = true
			return false
		}
		r.allocate()
		// Application work: touch random live objects.
		for w := 0; w < r.spec.WorkPerAlloc; w++ {
			r.work(w)
		}
		r.link()
		if r.sink != nil {
			r.sink.StepEnd()
		}
	}
	return true
}

// allocate performs one iteration's allocations: the periodic large
// buffer when one is due, then one object from the size mix, each
// entering a root slot unless it is a temporary.
func (r *Run) allocate() {
	if r.spec.LargeEvery > 0 && r.nAllocs%uint64(r.spec.LargeEvery) == uint64(r.spec.LargeEvery)-1 {
		o := r.c.Alloc(r.types.DataArr, r.spec.LargeWords)
		v := r.rng.Uint64()
		r.c.WriteData(o, 0, v)
		if r.sink != nil {
			r.sink.Alloc(AllocDataArr, r.spec.LargeWords, true, 0, v)
		}
		r.allocd += uint64(Shape{AllocDataArr, r.spec.LargeWords}.Bytes())
		r.nAllocs++
		if r.rng.Float64() >= r.spec.TempFrac {
			if len(r.largeRing) > 0 {
				// Long-lived large object: rotate it through the
				// ring, retiring the oldest surviving buffer.
				slot := r.largeRing[r.largeIdx%len(r.largeRing)]
				r.largeIdx++
				r.roots.Set(slot, o)
				if r.sink != nil {
					r.sink.RootSet(slot)
				}
			} else {
				// Long-lived large object: replace a pool entry.
				r.replacePool(o)
			}
		}
	}
	o, _ := r.allocRaw()
	if r.rng.Float64() >= r.spec.TempFrac {
		// Survives: enters the pool, displacing a random entry.
		r.replacePool(o)
	}
}

// work performs the w-th work item of an iteration on a random live
// object: decode its header (two charged reads) to pick a data word, read
// it, and on every fourth item decode the header again and write the
// value back incremented. That is three or six charged accesses, and
// every one is charged on every path (DESIGN.md §17). The step opens one
// mem window over all of them on the header's page and loads the words
// it reads from the page body the window hands back; it leaves the
// window for the ordinary per-access calls at the first datum that lies
// on another page (an array straddling a page boundary, a large object),
// and never enters it when an event is due or the page is not simply
// resident.
func (r *Run) work(w int) {
	s := r.liveBase + r.rng.intn(r.nLive) // randomLive, which is over the inlining budget
	obj := r.roots.Get(s)
	sp, hdr := r.space, obj+mem.WordSize
	write := w&3 == 0

	n := 3
	if write {
		n = 6
	}
	body, win := sp.OpenWindow(hdr, n)
	var h1, h2 uint64
	if win {
		h1 = mem.BodyWord(body, hdr)
		h2 = h1
		sp.ChargeReads(1)
	} else {
		h1, h2 = sp.ReadWordPair(hdr)
	}
	// dataIndex's two common shapes, written out: a call per item costs
	// more than the decode.
	var ri int
	if id, n := int32(uint32(h1)), uint32(h2>>32); id == r.nodeID {
		ri = 2 + int(r.rng.int31()&1)
	} else if id == r.arrID && n-1 < uint32(len(lengthDivisors)-1) {
		ri = r.rng.intn(lengthDivisors[n])
	} else {
		ri = r.dataIndex(h1, h2)
	}
	var v uint64
	if ra := gc.DataAddr(obj, ri); win && ra.Page() == hdr.Page() {
		v = mem.BodyWord(body, ra)
		sp.ChargeReads(1)
	} else {
		win = false
		v = r.base.ReadData(obj, ri)
	}
	r.checksum = r.checksum*31 + v

	wi := 0
	if write {
		if win {
			sp.ChargeReads(2)
		} else {
			h1, h2 = sp.ReadWordPair(hdr)
		}
		wi = r.dataIndex(h1, h2)
		if wa := gc.DataAddr(obj, wi); win && wa.Page() == hdr.Page() {
			sp.WindowWrite(wa, v+1)
		} else {
			r.base.WriteData(obj, wi, v+1)
		}
	}
	if r.sink != nil {
		r.sink.Work(s, ri, write, wi)
	}
}

// dataIndex picks a safe data word index for the object whose header
// word 1 was read as h1 (for the type ID) and h2 (for the array length).
// The generator allocates two shapes, so two compares against their type
// IDs decode it; anything else goes through the type table. A reference
// array has no data word, and the generator allocates none: work on one
// would store an integer into a reference slot, so it panics.
func (r *Run) dataIndex(h1, h2 uint64) int {
	id := int32(uint32(h1))
	if id == r.arrID {
		return r.arrayIndex(h2)
	}
	if id != r.nodeID {
		if t := r.tt.Get(id); t.Kind == objmodel.KindArray {
			if t.ElemPtr {
				panic(fmt.Sprintf("mutator: work step on reference array type %q has no data word", t.Name))
			}
			return r.arrayIndex(h2)
		}
	}
	return 2 + int(r.rng.int31()&1) // Intn(2): a scalar's words 2,3
}

// lengthDivisors holds the divisor of every array length from 1 to
// len-1, shared by all runs, so a draw over a data array of ordinary
// length needs no division. Its size is a constant, not a Spec's largest
// array: longer arrays draw through Intn.
var lengthDivisors = func() (t [512]divisor) {
	for n := 1; n < len(t); n++ {
		t[n] = newDivisor(n)
	}
	return t
}()

// arrayIndex draws an element of the data array whose length is in h2.
func (r *Run) arrayIndex(h2 uint64) int {
	// n-1 wraps for n = 0, so one compare selects 1 <= n < len.
	if n := uint32(h2 >> 32); n-1 < uint32(len(lengthDivisors)-1) {
		return r.rng.intn(lengthDivisors[n])
	} else if n > 0 {
		return r.rng.Intn(int(n))
	}
	return 0
}

// link stores a reference between two random live objects when one is
// due this iteration.
func (r *Run) link() {
	if r.spec.LinkEvery <= 0 || r.nAllocs%uint64(r.spec.LinkEvery) != 0 {
		return
	}
	ss, ds := r.randomLive(), r.randomLive()
	src := r.roots.Get(ss)
	dst := r.roots.Get(ds)
	if n := r.refSlots(src); n > 0 {
		i := r.rng.Intn(n)
		r.c.WriteRef(src, i, dst)
		if r.sink != nil {
			r.sink.Link(ss, ds, true, i)
		}
	} else if r.sink != nil {
		// Still an event: refSlots read the source's header,
		// which touched its page on the simulated machine.
		r.sink.Link(ss, ds, false, 0)
	}
}

// refSlots returns the number of reference slots obj has.
func (r *Run) refSlots(obj objmodel.Ref) int {
	t, n := r.tt.TypeOf(r.space, obj)
	return t.NumRefSlots(n)
}

// Done reports whether the allocation budget is exhausted.
func (r *Run) Done() bool { return r.done }

// Err implements Workload; the generator cannot fail.
func (r *Run) Err() error { return nil }

// Finish returns the run summary.
func (r *Run) Finish() Result {
	return Result{Spec: r.spec, AllocatedBytes: r.allocd, Allocations: r.nAllocs, Checksum: r.checksum}
}

// freeRuns holds released runs, each with its generator's ring.
var freeRuns mem.FreeList[*Run]

// Release hands the run to the next NewRun. Call it only once the run's
// results are read and the run is not used again.
func (r *Run) Release() {
	*r = Run{}
	freeRuns.Put(r)
}

// RunToCompletion drives the whole program in one call.
func (r *Run) RunToCompletion() Result {
	for r.Step(4096) {
	}
	return r.Finish()
}
