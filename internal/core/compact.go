package core

import (
	"bookmarkgc/internal/gc"
	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/metrics"
	"bookmarkgc/internal/objmodel"
	"bookmarkgc/internal/trace"
)

// compact is the two-pass compacting collection of §3.2, adjusted for
// bookmarks per §3.4.1:
//
//  1. a census — BC's one mark-sweep with nothing young, so nursery
//     objects are marked in place — finds the live objects (bookmarked
//     objects as secondary roots);
//  2. its sweep frees garbage so target capacity is visible;
//  3. target superpages are selected: superpages containing bookmarked
//     objects or, while the books hold, evicted pages are forced targets
//     (their objects cannot move, because evicted pointers to them cannot
//     be updated), then the most-occupied superpages until capacity
//     covers the movable live data;
//  4. a Cheney pass from the same roots forwards every reachable object
//     not already on a target into target superpages, evacuating the
//     nursery too;
//  5. empty non-target superpages are released.
func (c *BC) compact() {
	c.auditResidency()
	defer c.enterGC()()
	defer c.Pause(metrics.PauseCompact)()

	// Pass 1: the census. Nursery pages are always readable; elsewhere
	// the trace keeps to the pages pageOK admits.
	c.markSweep(&gc.Nursery{}, func(p mem.PageID) bool {
		return c.nursery.Contains(mem.PageAddr(p)) || c.pageOK(p)
	})

	// Pass 2: choose targets and copy.
	c.E.Trace.Begin(trace.PhaseCompactSelect)
	targets := c.chooseTargets()
	c.E.Trace.End(trace.PhaseCompactSelect)
	c.E.Trace.Begin(trace.PhaseCheneyForward)
	epoch2 := c.NextEpoch()
	// The census's worklist, still the collection's after its sweep: what
	// the handler grafted onto it since is dropped, and mid-pass bookmarks
	// join the copy pass. enterGC's end retires it.
	work := c.curWork
	work.Reset()
	c.curEpoch = epoch2
	var moved []objmodel.Ref // source blocks, freed after the trace
	forward := func(o objmodel.Ref) objmodel.Ref {
		switch {
		case c.nursery.Contains(o):
			return c.compactCopy(o, targets, work, epoch2, nil)
		case !c.pageOK(o.Page()):
			return o
		case c.SS.Contains(o):
			idx := c.SS.SuperIndex(o)
			if targets.all[idx] || objmodel.Bookmarked(c.E.Space, o) {
				// On a target (or unmovable): scan in place, once.
				gc.MarkStep(c.E, work, o, epoch2)
				return o
			}
			if objmodel.Forwarded(c.E.Space, o) {
				return objmodel.ForwardAddr(c.E.Space, o)
			}
			return c.compactCopy(o, targets, work, epoch2, &moved)
		default: // LOS: never moves
			gc.MarkStep(c.E, work, o, epoch2)
			return o
		}
	}
	c.E.Trace.Begin(trace.PhaseRootScan)
	c.Roots().ForEach(func(slot *mem.Addr) {
		*slot = forward(*slot)
	})
	c.E.Trace.End(trace.PhaseRootScan)
	// The census's roots: a bookmarked object's children move like any
	// others, and its slots must follow them.
	if c.bookmarksAreRoots() {
		c.bookmarkRoots(work, epoch2)
	}
	for {
		o, ok := work.Pop()
		if !ok {
			break
		}
		if !c.pageOK(o.Page()) {
			continue // evicted while queued; covered by its page's processing
		}
		c.scanLive(o, func(slot mem.Addr, tgt objmodel.Ref) {
			if nw := forward(tgt); nw != tgt {
				c.E.Space.WriteAddr(slot, nw)
			}
		})
	}
	// Free the vacated blocks only now: releasing a superpage mid-trace
	// could let the compaction allocator reacquire it and clobber
	// forwarding words other referrers still need.
	for _, o := range moved {
		c.SS.FreeBlock(o)
	}
	c.E.Trace.End(trace.PhaseCheneyForward)
	c.resetNursery()
	c.resizeNursery()
	c.maybeRevalidate()
	c.CollectionDone()
}

// tkey identifies a (size class, kind) allocation bucket.
type tkey struct {
	class int
	kind  objmodel.Kind
}

// targetSet is the compaction target selection: the full membership set
// plus per-bucket lists with an allocation cursor.
type targetSet struct {
	all   map[int]bool
	byKey map[tkey][]int
	cur   map[tkey]int
}

// chooseTargets returns the target-superpage set: forced targets
// (bookmarked objects, or evicted pages the trace skips) plus the
// most-occupied candidates until free capacity covers the movable live
// blocks, per size class and kind.
func (c *BC) chooseTargets() *targetSet {
	targets := &targetSet{
		all:   make(map[int]bool),
		byKey: make(map[tkey][]int),
		cur:   make(map[tkey]int),
	}
	candidates := map[tkey][]int{}
	liveMovable := map[tkey]int{}
	capacity := map[tkey]int{}

	c.SS.ForEachSuper(func(idx int, cl objmodel.SizeClass, kind objmodel.Kind) {
		k := tkey{cl.Index, kind}
		// Evicted pages pin a superpage only while the trace skips them:
		// without the books it touches them, and rewrites their pointers.
		forced := c.bookmarkRoot(region{super: idx})
		if !forced {
			// A superpage with any bookmarked resident object must not
			// have that object moved; keeping the whole superpage is the
			// paper's rule (bookmarked objects reside on targets).
			c.SS.ForEachObjectIn(idx, func(o objmodel.Ref) {
				if !forced && c.pageOK(o.Page()) && objmodel.Bookmarked(c.E.Space, o) {
					forced = true
				}
			})
		}
		if forced {
			targets.add(k, idx)
			capacity[k] += c.SS.FreeResidentBlocks(idx)
			return
		}
		candidates[k] = append(candidates[k], idx)
		liveMovable[k] += c.SS.Allocated(idx)
	})

	for k, cands := range candidates {
		// Most-occupied first: fewest moves, fewest target superpages.
		sortByAllocatedDesc(c, cands)
		need := liveMovable[k] - capacity[k]
		for _, idx := range cands {
			if need <= 0 {
				break
			}
			targets.add(k, idx)
			// Blocks already on this target stay; only its free capacity
			// absorbs movers, and its own blocks stop being movable.
			need -= c.SS.Allocated(idx) + c.SS.FreeResidentBlocks(idx)
		}
	}
	return targets
}

func (ts *targetSet) add(k tkey, idx int) {
	if !ts.all[idx] {
		ts.all[idx] = true
		ts.byKey[k] = append(ts.byKey[k], idx)
	}
}

func sortByAllocatedDesc(c *BC, idxs []int) {
	for i := 1; i < len(idxs); i++ {
		for j := i; j > 0 && c.SS.Allocated(idxs[j]) > c.SS.Allocated(idxs[j-1]); j-- {
			idxs[j], idxs[j-1] = idxs[j-1], idxs[j]
		}
	}
}

// compactCopy copies a live object (nursery survivor or movable mature
// object) into a target superpage, leaving a forwarding pointer. When
// moved is non-nil the source block is queued for freeing after the
// trace.
func (c *BC) compactCopy(o objmodel.Ref, targets *targetSet, work *gc.WorkList, epoch2 uint32, moved *[]objmodel.Ref) objmodel.Ref {
	if objmodel.Forwarded(c.E.Space, o) {
		return objmodel.ForwardAddr(c.E.Space, o)
	}
	t, n := c.E.Types.TypeOf(c.E.Space, o)
	dst := c.allocForCompaction(t, n, targets)
	size := int(mem.RoundUpWord(uint64(t.TotalBytes(n))))
	gc.MoveObject(c.E.Space, o, dst, size)
	objmodel.SetMark(c.E.Space, dst, epoch2)
	c.copied(dst, size)
	c.E.Counters.Inc(trace.CForwardedObjects)
	c.E.Counters.Add(trace.CForwardedBytes, uint64(size))
	work.Push(dst)
	if moved != nil {
		*moved = append(*moved, o)
	}
	return dst
}

// allocForCompaction allocates a block on a target superpage of the right
// class and kind, extending the target set with a fresh superpage if
// capacity was underestimated (LOS-bound objects never reach here).
func (c *BC) allocForCompaction(t *objmodel.Type, arrayLen int, targets *targetSet) objmodel.Ref {
	total := t.TotalBytes(arrayLen)
	cl, small := c.E.Classes.ForSize(total)
	if !small {
		o := c.LOS.Alloc(t, arrayLen)
		if o == mem.Nil {
			panic(c.OOM(c.Budget()))
		}
		return o
	}
	k := tkey{cl.Index, t.Kind}
	list := targets.byKey[k]
	for targets.cur[k] < len(list) {
		idx := list[targets.cur[k]]
		if o := c.SS.AllocInSuper(idx, t, arrayLen); o != mem.Nil {
			return o
		}
		targets.cur[k]++
		list = targets.byKey[k] // may have grown
	}
	idx := c.SS.AcquireSuper(cl, t.Kind)
	if idx < 0 {
		panic(c.OOM(c.Budget()))
	}
	targets.add(k, idx)
	o := c.SS.AllocInSuper(idx, t, arrayLen)
	if o == mem.Nil {
		panic(c.OOM(c.Budget()))
	}
	c.markRangeResident(c.SS.SuperBase(idx), mem.SuperSize)
	return o
}
