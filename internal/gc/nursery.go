package gc

import (
	"bookmarkgc/internal/heap"
	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/metrics"
	"bookmarkgc/internal/objmodel"
	"bookmarkgc/internal/trace"
)

// Nursery is the young space: the bump region new objects are allocated
// in, with — for a generational collector — the remembered set of
// old-to-young slots its write barrier feeds. GenMS, GenCopy and BC use
// it generationally; CopyMS uses it as its eden, without a remembered
// set, because its every collection is whole-heap. The zero Nursery is
// the empty young space (it contains nothing and resets to nothing):
// what MarkSweep, which has none, hands the shared trace.
type Nursery struct {
	heap.BumpSpace
	Rem *RemSet

	// FixedPages, when non-zero, pins the nursery size instead of
	// Appel-style variable sizing (Figure 5(b)).
	FixedPages int
}

// NewEden builds a young space with no remembered set over the layout's
// first bump region, the environment's counter registry wired.
func NewEden(env *Env) *Nursery {
	return &Nursery{BumpSpace: *NewBump(env, env.Layout.Bump0Base, env.Layout.Bump0End)}
}

// NewNursery builds a generational young space. Its remembered set
// covers every address that can hold an old-to-young slot — the rest of
// the layout — and buffers bufCap slots before filtering them into cards
// (§3.1; 0 is MMTk's unbounded write buffer). A buffered slot survives
// the filter while it still points into the nursery.
func NewNursery(env *Env, bufCap int) *Nursery {
	n := NewEden(env)
	n.Rem = NewRemSet(env.Space, env.Layout.Bump0End, env.Layout.LOSEnd, bufCap)
	n.Rem.SetCounters(env.Counters)
	n.Rem.SetFilter(func(slot mem.Addr) bool { return n.Contains(env.Space.ReadAddr(slot)) })
	env.Hold(n.Rem)
	return n
}

// Resize applies the Appel policy: the nursery gets the freePages the
// older generation is not using, clamped to the fixed size if one is set
// and to MinNurseryPages from below.
func (n *Nursery) Resize(freePages int) {
	if n.FixedPages > 0 && freePages > n.FixedPages {
		freePages = n.FixedPages
	}
	if freePages < MinNurseryPages {
		freePages = MinNurseryPages
	}
	n.SetBudget(uint64(freePages) * mem.PageSize)
}

// Barrier is the generational write barrier, run after v was stored into
// slot of object o: a store of a nursery pointer into a non-nursery
// object is remembered. It reports whether it was.
func (n *Nursery) Barrier(o objmodel.Ref, slot mem.Addr, v objmodel.Ref) bool {
	if v == mem.Nil || !n.Contains(v) || n.Contains(o) {
		return false
	}
	n.Rem.Record(slot)
	return true
}

// Reset empties the nursery after a collection, and with it the
// remembered set: no young object is left to point at.
func (n *Nursery) Reset() {
	n.BumpSpace.Reset()
	if n.Rem != nil {
		n.Rem.Clear()
	}
}

// Evacuate is a nursery collection, in a nursery pause of its own: every
// nursery object reachable from the remembered slots and the roots is
// moved out through promote, the copies are scanned Cheney-style for
// further nursery references, and the nursery is reset.
func (n *Nursery) Evacuate(b *Base, promote Promoter) {
	defer b.Pause(metrics.PauseNursery).End()
	env := b.E
	work := env.GetWorkList()
	defer env.PutWorkList(work)
	fwd := func(slot mem.Addr, tgt objmodel.Ref) {
		if n.Contains(tgt) {
			env.Space.WriteAddr(slot, promote(tgt, work))
		}
	}
	// Remembered slots first (old-to-young pointers), then roots.
	env.Trace.Begin(trace.PhaseRootScan)
	n.Rem.ForEachSlot(func(slot mem.Addr) {
		if tgt := env.Space.ReadAddr(slot); tgt != mem.Nil {
			fwd(slot, tgt)
		}
	})
	b.roots.ForEach(func(slot *mem.Addr) {
		if n.Contains(*slot) {
			*slot = promote(*slot, work)
		}
	})
	env.Trace.End(trace.PhaseRootScan)
	env.Trace.Begin(trace.PhaseCheneyForward)
	Drain(env, work, fwd)
	env.Trace.End(trace.PhaseCheneyForward)
	n.Reset()
	b.CollectionDone()
}
