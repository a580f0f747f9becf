package gc

import (
	"math"

	"bookmarkgc/internal/heap"
	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/metrics"
	"bookmarkgc/internal/objmodel"
	"bookmarkgc/internal/trace"
)

// NewBump builds a bump space over [base, end) with the environment's
// counter registry wired.
func NewBump(env *Env, base, end mem.Addr) *heap.BumpSpace {
	b := heap.NewBumpSpace(env.Space, base, end)
	b.SetCounters(env.Counters)
	return b
}

// NewLOS builds the large object space over env's layout with the
// environment's counter registry wired.
func NewLOS(env *Env) *heap.LOS {
	l := heap.NewLOS(env.Space, env.Layout.LOSBase, env.Layout.LOSEnd)
	l.SetCounters(env.Counters)
	return l
}

// Mature bundles the mark-sweep superpage space and the LOS shared by
// MarkSweep, CopyMS, GenMS, and the bookmarking collector, with the two
// things all four do to them: promote into them and trace over them.
type Mature struct {
	SS  *heap.SuperSpace
	LOS *heap.LOS

	// OnPromote, when set, sees every fresh mature copy Promote makes,
	// right after the copy: BC keeps its residency books there, CopyMS
	// stamps the copy's mark.
	OnPromote func(dst objmodel.Ref, size int)

	b *Base
}

// NewMature builds the mature spaces over the layout of b's environment,
// wiring the environment's counter registry into them.
func NewMature(b *Base) Mature {
	env := b.E
	m := Mature{
		SS:  heap.NewSuperSpace(env.Space, env.Classes, env.Layout.MatureBase, env.Layout.MatureEnd),
		LOS: NewLOS(env),
		b:   b,
	}
	m.SS.SetCounters(env.Counters)
	return m
}

// EmptyWord is the union of the mature spaces' empty pages (see
// Collector.EmptyWord).
func (m *Mature) EmptyWord(wi int) uint64 { return m.SS.EmptyWord(wi) | m.LOS.EmptyWord(wi) }

// MatureUsedPages is the page footprint of the mature spaces.
func (m *Mature) MatureUsedPages() int { return m.SS.UsedPages() + m.LOS.UsedPages() }

// Budget is the policy-effective page budget; with no policy it is
// exactly the configured heap. The floor keeps a squeezed budget
// workable: live mature data plus a minimal nursery (for MarkSweep,
// allocation headroom) — growth past the policy's target, at the cost
// of paging, happens only when needed for completion.
func (m *Mature) Budget() int {
	return m.b.E.HeapBudget(m.MatureUsedPages() + MinNurseryPages)
}

// NurseryRoom is the Appel share of a young space in front of the
// mature spaces: all the budget they are not using.
func (m *Mature) NurseryRoom() int { return m.Budget() - m.MatureUsedPages() }

// AllocMature places an object into the segregated-fit space or the LOS,
// acquiring superpages as needed, keeping the total footprint (mature +
// extraUsed) within budget pages. Returns mem.Nil when that would exceed
// the budget or space is exhausted.
func (m *Mature) AllocMature(t *objmodel.Type, arrayLen int, budget int, extraUsed int) objmodel.Ref {
	total := t.TotalBytes(arrayLen)
	cl, small := m.b.E.Classes.ForSize(total)
	if !small {
		pages := int(mem.RoundUpPage(uint64(total)) / mem.PageSize)
		if m.MatureUsedPages()+extraUsed+pages > budget {
			return mem.Nil
		}
		return m.LOS.Alloc(t, arrayLen)
	}
	if o := m.SS.Alloc(t, arrayLen, cl); o != mem.Nil {
		return o
	}
	if m.MatureUsedPages()+extraUsed+mem.SuperPages > budget {
		return mem.Nil
	}
	if m.SS.AcquireSuper(cl, t.Kind) < 0 {
		return mem.Nil
	}
	return m.SS.Alloc(t, arrayLen, cl)
}

// YoungFirst is the placement of a collector with a young space in front
// of its mature space (GenMS, CopyMS, BC): a small object goes to young,
// any other into the mature space within Budget, young's pages counted
// against it.
func (m *Mature) YoungFirst(young *Nursery) Placer {
	return func(t *objmodel.Type, arrayLen, _ int, small bool) objmodel.Ref {
		if small {
			return young.Alloc(t, arrayLen)
		}
		return m.AllocMature(t, arrayLen, m.Budget(), young.UsedPages())
	}
}

// Promoter evacuates a young object during a collection and returns its
// new address, pushing a fresh copy on work for scanning.
type Promoter func(o objmodel.Ref, work *WorkList) objmodel.Ref

// Promote evacuates a young object into the mature space, once: an
// object already forwarded answers with its new address. Copies made
// during a collection may not fail; the budget is enforced after the
// collection completes.
func (m *Mature) Promote(o objmodel.Ref, work *WorkList) objmodel.Ref {
	env := m.b.E
	if objmodel.Forwarded(env.Space, o) {
		return objmodel.ForwardAddr(env.Space, o)
	}
	t, n := env.Types.TypeOf(env.Space, o)
	dst := m.AllocMature(t, n, math.MaxInt, 0)
	if dst == mem.Nil {
		panic(m.b.OOM(m.Budget()))
	}
	size := int(mem.RoundUpWord(uint64(t.TotalBytes(n))))
	MoveObject(env.Space, o, dst, size)
	if m.OnPromote != nil {
		m.OnPromote(dst, size)
	}
	env.Counters.Add(trace.CPromotedBytes, uint64(size))
	work.Push(dst)
	return dst
}

// PromoteMarked is the Promoter of a full collection in GenMS and BC:
// Promote, then stamp the mature copy with the current epoch. The stamp
// repeats on every later edge to the same object — two redundant header
// accesses that the pinned outputs include.
func (m *Mature) PromoteMarked(o objmodel.Ref, work *WorkList) objmodel.Ref {
	dst := m.Promote(o, work)
	objmodel.SetMark(m.b.E.Space, dst, m.b.epoch)
	return dst
}

// Trace is one full-heap evacuating mark-sweep collection in progress.
// Its steps run in order — ScanRoots, Mark, Sweep — and are separate so
// that BC can put its bookmark roots and its span nesting between them.
// Work and Epoch are exposed for the same reason: BC's eviction handler
// injects mark work into a collection it interrupts.
type Trace struct {
	Epoch uint32
	Work  *WorkList

	m       *Mature
	young   *Nursery
	pageOK  func(mem.PageID) bool
	promote Promoter
}

// BeginTrace opens a new mark epoch. Objects in young are evacuated
// through promote, which must return them marked; everything else is
// marked in place. pageOK, when non-nil, names the pages the trace may
// touch: slots and objects elsewhere are passed over (BC's in-memory
// collection, §3.4.1).
func (m *Mature) BeginTrace(young *Nursery, pageOK func(mem.PageID) bool, promote Promoter) *Trace {
	return &Trace{
		Epoch: m.b.NextEpoch(), Work: m.b.E.GetWorkList(),
		m: m, young: young, pageOK: pageOK, promote: promote,
	}
}

// ScanRoots promotes or marks the referent of every root.
func (t *Trace) ScanRoots() {
	env := t.m.b.E
	env.Trace.Begin(trace.PhaseRootScan)
	t.m.b.roots.ForEach(func(slot *mem.Addr) {
		switch o := *slot; {
		case t.young.Contains(o):
			*slot = t.promote(o, t.Work)
		case t.pageOK == nil || t.pageOK(o.Page()):
			MarkStep(env, t.Work, o, t.Epoch)
		}
	})
	env.Trace.End(trace.PhaseRootScan)
}

// Mark runs the mark engine (DESIGN.md §11) from what the roots
// queued: it marks mature objects in place and defers edges into the
// young space, which are promoted between rounds, in slot order, and
// written back.
func (t *Trace) Mark() {
	env, young, ok := t.m.b.E, t.young, t.pageOK
	cfg := &MarkConfig{Epoch: t.Epoch, Classify: func(tgt objmodel.Ref) EdgeAction {
		if young.Contains(tgt) {
			return EdgeDefer
		}
		return EdgeMark
	}}
	if ok != nil {
		// The books behind ok only change between rounds (eviction
		// handlers fire there, queueing next-round seeds on Work), so
		// ok is stable while a round traces.
		// SkipObj re-applies it to objects evicted while gray.
		cfg.SlotOK = func(slot mem.Addr) bool { return ok(slot.Page()) }
		cfg.SkipObj = func(o objmodel.Ref) bool { return !ok(o.Page()) }
		cfg.Classify = func(tgt objmodel.Ref) EdgeAction {
			switch {
			case !ok(tgt.Page()):
				return EdgeSkip
			case young.Contains(tgt):
				return EdgeDefer
			}
			return EdgeMark
		}
	}
	env.Marker().Mark(cfg, t.Work, func(e DeferredEdge, w *WorkList) {
		if dst := t.promote(e.Target, w); dst != e.Target {
			env.Space.WriteAddr(e.Slot, dst)
		}
	})
}

// Sweep frees what the trace left unmarked (large objects only on pages
// the trace may touch). Every young survivor has been promoted by now;
// the caller resets the young space. Work stays the caller's: it returns
// the stack (Env.PutWorkList) once nothing can push to it any more,
// which for BC is when the whole collection ends, not here.
func (t *Trace) Sweep() {
	env := t.m.b.E
	env.Trace.Begin(trace.PhaseSweep)
	t.m.SS.Sweep(t.Epoch)
	t.m.LOS.Sweep(t.Epoch, t.pageOK)
	env.Trace.End(trace.PhaseSweep)
}

// FullCollect is the whole collection for a collector with nothing to
// add between the steps: one full pause around roots, mark and sweep.
func (m *Mature) FullCollect(young *Nursery, promote Promoter) {
	defer m.b.Pause(metrics.PauseFull)()
	t := m.BeginTrace(young, nil, promote)
	t.ScanRoots()
	m.b.E.Trace.Begin(trace.PhaseMark)
	t.Mark()
	m.b.E.Trace.End(trace.PhaseMark)
	t.Sweep()
	m.b.E.PutWorkList(t.Work)
	young.Reset()
	m.b.CollectionDone()
}
