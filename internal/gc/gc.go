// Package gc provides the runtime glue every collector is built on: the
// collector interface the mutator programs against, the root registry,
// object scanning, generational remembered sets (write buffers filtered
// into a card table, §3.1 of the paper), pause accounting, the shared
// environment (address space, VMM process, type table, size classes),
// and the parts the collectors are composed from — Base, Nursery and
// Mature (DESIGN.md §16).
package gc

import (
	"fmt"

	"bookmarkgc/internal/heap"
	"bookmarkgc/internal/heappolicy"
	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/metrics"
	"bookmarkgc/internal/objmodel"
	"bookmarkgc/internal/trace"
	"bookmarkgc/internal/vmm"
)

// Env is everything a collector needs from its surroundings. One Env
// corresponds to one simulated JVM process.
type Env struct {
	Proc    *vmm.Proc
	Space   *mem.Space
	Clock   *vmm.Clock
	Types   *objmodel.Table
	Classes *objmodel.Classes
	Layout  heap.Layout

	// HeapPages is the collector's page budget — the "heap size" of the
	// paper's experiments. Collectors trigger collection to stay within
	// it; HeapPolicy may lower the effective budget below it.
	HeapPages int

	// HeapPolicy, when non-nil, is the pluggable heap-limit control
	// loop (internal/heappolicy). Collectors consult it through
	// HeapBudget/HeapLimitPages and feed it via ObserveHeapPolicy. A
	// nil policy means the fixed budget: HeapPages, exactly. BC
	// installs the extracted bc-shrink policy by default (§3.3.3/§7).
	HeapPolicy heappolicy.Policy

	// Trace receives span and point events from the collector; defaults
	// to the no-op tracer. Counters, when non-nil, accumulates the
	// counter registry (its methods are nil-safe, so instrumentation
	// sites call through unconditionally).
	Trace    trace.Tracer
	Counters *trace.Counters

	// MarkWorkers is ignored: marking runs on one worker. It stays
	// declared only because the benchmark module still sets it.
	MarkWorkers int

	marker *Marker

	// held are the structures built over the environment whose Go-heap
	// lists and maps ReleaseScratch hands to the next run: the spaces,
	// the remembered set and the collector itself. It starts on
	// heldBuf, which holds what one collector builds.
	held    []Releaser
	heldBuf [4]Releaser
}

// Releaser is a structure that recycles its host scratch when its run
// has ended.
type Releaser interface{ Release() }

// Hold has ReleaseScratch release r with the environment's scratch.
func (e *Env) Hold(r Releaser) {
	if e.held == nil {
		e.held = e.heldBuf[:0]
	}
	e.held = append(e.held, r)
}

// SetDefaultMarkWorkers is ignored: marking runs on one worker. It stays
// declared only because the benchmark module still calls it.
func SetDefaultMarkWorkers(int) {}

// Marker returns the environment's mark engine, building it on first
// use from a retired engine's buffers when one is large enough.
func (e *Env) Marker() *Marker {
	if e.marker == nil {
		n := e.Space.Pages()
		m, ok := freeMarkers.GetFit(n, func(m *Marker) int { return cap(m.touch) })
		if !ok {
			m = &Marker{touch: make([]uint32, n)}
		}
		// A run that failed mid-mark may have retired it dirty.
		*m = Marker{env: e, touch: m.touch[:n]}
		clear(m.touch)
		e.marker = m
	}
	return e.marker
}

// freeMarkers recycles mark engines — their per-page tally and round
// buffers — across environments (ReleaseScratch).
var freeMarkers mem.FreeList[*Marker]

// NewEnv wires a process-wide environment for a heap of heapBytes.
func NewEnv(v *vmm.VMM, name string, heapBytes uint64) *Env {
	layout := heap.NewLayout(heapBytes)
	proc := v.NewProc(name, layout.Total)
	return &Env{
		Proc:      proc,
		Space:     proc.Space(),
		Clock:     v.Clock,
		Types:     objmodel.NewTable(),
		Classes:   objmodel.BuildClasses(),
		Layout:    layout,
		HeapPages: int(mem.RoundUpPage(heapBytes) / mem.PageSize),
		Trace:     trace.Nop{},
	}
}

// Collector is the interface the mutator programs against. All object
// access flows through it so each collector can interpose its barriers
// and so every access is charged to the simulated clock.
type Collector interface {
	// Name identifies the collector ("BC", "GenMS", ...).
	Name() string
	// Alloc allocates and initializes an object, collecting if needed.
	// It panics with ErrOutOfMemory if the heap budget cannot hold the
	// live data.
	Alloc(t *objmodel.Type, arrayLen int) objmodel.Ref
	// ReadRef loads the i-th reference slot of o.
	ReadRef(o objmodel.Ref, i int) objmodel.Ref
	// WriteRef stores v into the i-th reference slot of o, applying the
	// collector's write barrier.
	WriteRef(o objmodel.Ref, i int, v objmodel.Ref)
	// ReadData / WriteData access the d-th non-reference payload word;
	// the mutator uses them to model application work on live objects.
	ReadData(o objmodel.Ref, d int) uint64
	WriteData(o objmodel.Ref, d int, v uint64)
	// Collect forces a collection (full-heap if full is true).
	Collect(full bool)
	// Roots exposes the root registry (mutator locals and statics).
	Roots() *Roots
	// Stats exposes pause and collection counters.
	Stats() *Stats
	// Env exposes the shared environment.
	Env() *Env
	// UsedPages reports the heap footprint in pages as the collector
	// accounts it (used by the harness and the sizing policies).
	UsedPages() int
	// EmptyWord returns word wi of the pages the collector's spaces
	// report empty — no object occupies them — as a bitmap indexed by
	// absolute page number: the union of each space's EmptyWord.
	EmptyWord(wi int) uint64
	// Direct exposes the Base every collector embeds, for data-word
	// access without the interface dispatch (see Base.Direct).
	Direct() *Base
}

// ErrOutOfMemory is the panic value when live data exceeds the budget.
type ErrOutOfMemory struct {
	Collector string
	HeapPages int
	Detail    string
}

func (e ErrOutOfMemory) Error() string {
	s := fmt.Sprintf("%s: out of memory (heap budget %d pages)", e.Collector, e.HeapPages)
	if e.Detail != "" {
		s += " [" + e.Detail + "]"
	}
	return s
}

// Stats aggregates a collector's activity.
type Stats struct {
	Timeline     metrics.Timeline
	BytesAlloc   uint64
	ObjectsAlloc uint64
	Nursery      uint64 // nursery collections
	Full         uint64 // full-heap collections
	Compactions  uint64
	Bookmarked   uint64 // objects bookmarked (BC)
	PagesEvicted uint64 // heap pages processed for eviction (BC)
	FailSafe     uint64 // completeness fail-safe collections (BC)
}

// Roots is the registry of mutator-visible reference slots (locals,
// globals). Moving collectors update slots in place; the mutator holds
// stable slot indices. A zero slot holds mem.Nil.
type Roots struct {
	slots []mem.Addr
	free  []int32
}

// freeRoots recycles root-registry backing arrays across runs (each run
// re-grows tens of thousands of slots otherwise).
var freeRoots mem.FreeList[rootsScratch]

type rootsScratch struct {
	slots []mem.Addr
	free  []int32
}

// acquire adopts the retired backing arrays of least slot capacity at
// least n, if the registry is still empty and one is that large.
func (r *Roots) acquire(n int) bool {
	if r.slots != nil {
		return true
	}
	sc, ok := freeRoots.GetFit(n, func(sc rootsScratch) int { return cap(sc.slots) })
	if ok {
		r.slots, r.free = sc.slots, sc.free
	}
	return ok
}

// Reserve readies an empty registry for n Appends that regrow nothing:
// it adopts the retired arrays that fit n most tightly, or makes a slot
// array of exactly n. An owner that knows its block's size reserves it
// before appending; a registry first used with no reservation adopts
// the smallest retired arrays, leaving the larger ones to owners that
// reserve. Since every run of a spec reserves the same n, a warm
// process matches each reservation with the array the same reservation
// left, and the registries stop growing after one pass.
func (r *Roots) Reserve(n int) {
	if r.slots == nil && !r.acquire(n) {
		r.slots = make([]mem.Addr, 0, n)
	}
}

func (r *Roots) release() {
	if cap(r.slots) == 0 {
		return
	}
	freeRoots.Put(rootsScratch{slots: r.slots[:0], free: r.free[:0]})
	r.slots, r.free = nil, nil
}

// Add registers a root holding o and returns its slot index.
func (r *Roots) Add(o mem.Addr) int {
	if n := len(r.free); n > 0 {
		i := int(r.free[n-1])
		r.free = r.free[:n-1]
		r.slots[i] = o
		return i
	}
	return r.Append(o)
}

// Append registers a root holding o in a new slot past every existing
// one and returns its index. Unlike Add it never reuses a freed slot, so
// consecutive Appends with no Add between them fill consecutive slots —
// a block its owner can address as base + offset.
func (r *Roots) Append(o mem.Addr) int {
	if r.slots == nil {
		r.acquire(0)
	}
	r.slots = append(r.slots, o)
	return len(r.slots) - 1
}

// Get returns the object in slot i.
func (r *Roots) Get(i int) mem.Addr { return r.slots[i] }

// Set overwrites slot i.
func (r *Roots) Set(i int, o mem.Addr) { r.slots[i] = o }

// Release frees slot i for reuse.
func (r *Roots) Release(i int) {
	r.slots[i] = mem.Nil
	r.free = append(r.free, int32(i))
}

// Len returns the number of slots ever created.
func (r *Roots) Len() int { return len(r.slots) }

// ForEach visits every non-nil root slot; fn may update the slot (moving
// collectors forward roots through this).
func (r *Roots) ForEach(fn func(slot *mem.Addr)) {
	for i := range r.slots {
		if r.slots[i] != mem.Nil {
			fn(&r.slots[i])
		}
	}
}

// ScanObject visits each reference slot of o, reporting the slot address
// and current target (skipping nil). It reads the object's header and
// fields through the space, touching pages exactly as a real scan does.
func ScanObject(s *mem.Space, types *objmodel.Table, o objmodel.Ref, fn func(slot mem.Addr, target objmodel.Ref)) {
	t, n := types.TypeOf(s, o)
	for i := 0; i < t.NumRefSlots(n); i++ {
		slot := t.RefSlotAddr(o, i)
		if tgt := s.ReadAddr(slot); tgt != mem.Nil {
			fn(slot, tgt)
		}
	}
}

// ObjectBytes returns o's total size (header included), word-rounded.
func ObjectBytes(s *mem.Space, types *objmodel.Table, o objmodel.Ref) int {
	t, n := types.TypeOf(s, o)
	return int(mem.RoundUpWord(uint64(t.TotalBytes(n))))
}

// CopyObject copies o (size bytes total) to dst through the space, so
// both pages are touched and charged exactly like the word-by-word copy
// loop (mem.CopyWords batches runs where that is indistinguishable).
func CopyObject(s *mem.Space, o, dst objmodel.Ref, totalBytes int) {
	s.CopyWords(dst, o, uint64(totalBytes))
}

// WorkList is a simple gray stack used by all tracing loops.
type WorkList struct {
	items []objmodel.Ref
}

// Push adds an object to trace.
func (w *WorkList) Push(o objmodel.Ref) { w.items = append(w.items, o) }

// Pop removes and returns the most recent object; ok is false when empty.
func (w *WorkList) Pop() (objmodel.Ref, bool) {
	n := len(w.items)
	if n == 0 {
		return mem.Nil, false
	}
	o := w.items[n-1]
	w.items = w.items[:n-1]
	return o, true
}

// Len returns the number of pending objects.
func (w *WorkList) Len() int { return len(w.items) }

// Reset empties the list, retaining capacity.
func (w *WorkList) Reset() { w.items = w.items[:0] }

// GetWorkList returns an empty gray stack: the largest one retired via
// PutWorkList by any environment, so the per-collection tracing loops
// stop allocating their worklists (and the backing arrays they grow) on
// every cycle.
func (e *Env) GetWorkList() *WorkList {
	if w, ok := freeWorkLists.GetLargest(func(w *WorkList) int { return cap(w.items) }); ok {
		w.Reset()
		return w
	}
	return &WorkList{}
}

// PutWorkList retires w (emptied, capacity kept) for reuse by any
// environment, possibly on another goroutine: call it only when nothing
// of this one can push to w again.
func (e *Env) PutWorkList(w *WorkList) {
	w.Reset()
	freeWorkLists.Put(w)
}

// freeWorkLists holds the gray stacks no collection is using, shared by
// every environment. A collection returns its stack when it ends, so the
// stacks number the most collections ever in progress at once (a fleet's
// tenants collect one at a time), and taking the largest hands each
// collection one the biggest evacuation so far has already grown.
var freeWorkLists mem.FreeList[*WorkList]

// ReleaseScratch hands the environment's recycled scratch — the mark
// engine's buffers, the root registry's backing arrays and what it
// holds (Hold) — to process-wide free lists for the next run. Call only
// when the run is completely finished.
func (e *Env) ReleaseScratch(roots *Roots) {
	for _, r := range e.held {
		r.Release()
	}
	clear(e.held)
	e.held = e.held[:0]
	if e.marker != nil {
		e.marker.env = nil
		freeMarkers.Put(e.marker)
		e.marker = nil
	}
	if roots != nil {
		roots.release()
	}
}
