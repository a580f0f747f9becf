// Package vmm simulates the extended Linux virtual memory manager the
// paper builds on (§4.1): a global approximate-LRU replacement policy
// (an active list managed by a clock algorithm plus an inactive FIFO),
// batched eviction, demand paging with a disk cost model, and the
// cooperative extensions — eviction-scheduled and page-reloaded
// notifications (modeled on queueable real-time signals), the
// vm_relinquish system call, madvise(MADV_DONTNEED) discard, mprotect
// protection faults, and per-page process ownership (the rmap patch).
//
// Every access any collector or mutator makes flows through the touch
// path, so paging behaviour is an emergent property of the algorithms
// running above, exactly as on the paper's modified 2.4.20 kernel. The
// hot per-page state (residency, reference, protection, surrender bits)
// lives in the Space's flag side array (mem.PageFlags) so the
// resident-page common case is handled inline by the Space itself; the
// VMM keeps only the cold bookkeeping (locks, queue stamps) per page and
// services the slow path via mem.FaultToucher.
package vmm

import (
	"fmt"
	"runtime"
	"time"

	"bookmarkgc/internal/mem"
)

// PageState is the residency state of one virtual page.
type PageState uint8

const (
	// Fresh pages have never been touched (or were discarded); the first
	// touch is a zero-fill minor fault.
	Fresh PageState = iota
	// Resident pages occupy a physical frame.
	Resident
	// Evicted pages live on the swap device; touching one is a major
	// fault that costs a disk access.
	Evicted
)

func (s PageState) String() string {
	switch s {
	case Fresh:
		return "fresh"
	case Resident:
		return "resident"
	case Evicted:
		return "evicted"
	}
	return "invalid"
}

// Costs is the simulation's latency model. The defaults preserve the
// paper's essential ratio: a disk access is about six orders of magnitude
// more expensive than a memory access.
type Costs struct {
	WordAccess time.Duration // every word read/write
	MinorFault time.Duration // first touch of a fresh page (zero fill)
	MajorFault time.Duration // reload of an evicted page from disk
	EvictIO    time.Duration // CPU-visible slice of an asynchronous write-back
	Signal     time.Duration // delivering one notification to the runtime
}

// DefaultCosts returns the calibration used throughout the experiments.
func DefaultCosts() Costs {
	return Costs{
		WordAccess: 2 * time.Nanosecond,
		MinorFault: 2 * time.Microsecond,
		MajorFault: 5 * time.Millisecond,
		EvictIO:    50 * time.Microsecond,
		Signal:     6 * time.Microsecond,
	}
}

// Handler receives the kernel-to-runtime notifications of the paper's
// extended kernel. Both callbacks run synchronously, modeling lossless
// queueable real-time signals (§4.1).
type Handler interface {
	// EvictionScheduled fires just before page p is unmapped for eviction.
	// The handler may touch p to veto the choice (the VMM then picks
	// another victim), discard empty pages to relieve pressure, or scan
	// and relinquish the page (bookmarking).
	EvictionScheduled(p mem.PageID)
	// PageReloaded fires when a page the runtime has been told about comes
	// back: either a major fault on an evicted page (wasEvicted true) or a
	// protection fault on a page the runtime had protected (wasEvicted
	// false).
	PageReloaded(p mem.PageID, wasEvicted bool)
}

// pageInfo holds the cold per-page bookkeeping; the hot bits (state,
// referenced, protected, surrendered) live in the Space's flag array.
type pageInfo struct {
	locked    bool
	servicing bool // fault in progress: page is held, like the kernel page lock
	queued    bool // currently has a live queue entry
	stamp     uint32
}

// pageRef is one queue entry, 12 bytes: NewProc caps a space below 2^32
// pages so the page number fits a uint32.
type pageRef struct {
	pid   int32
	page  uint32
	stamp uint32
}

// refQueue is a head-indexed FIFO of page references. Pops advance the
// head instead of re-slicing, so the backing array's capacity is reused
// across reclaim passes instead of sliding forward and reallocating.
type refQueue struct {
	refs []pageRef
	head int
}

func (q *refQueue) size() int      { return len(q.refs) - q.head }
func (q *refQueue) push(r pageRef) { q.refs = append(q.refs, r) }

// pop removes the head entry. When the consumed prefix dominates the
// backing array it is slid away — a pure memory operation (order and
// live contents unchanged) that keeps append from copying dead entries
// forever.
func (q *refQueue) pop() pageRef {
	r := q.refs[q.head]
	q.head++
	if q.head >= 256 && q.head*2 >= len(q.refs) {
		n := copy(q.refs, q.refs[q.head:])
		q.refs = q.refs[:n]
		q.head = 0
	}
	return r
}

// compact rewrites the queue in place, keeping only entries for which
// keep returns true and resetting the consumed head zone. Order is
// preserved, so compaction timing never changes which page is reclaimed.
func (q *refQueue) compact(keep func(pageRef) bool) {
	out := q.refs[:0]
	for _, r := range q.refs[q.head:] {
		if keep(r) {
			out = append(out, r)
		}
	}
	q.refs = out
	q.head = 0
}

// Stats are global VMM counters.
type Stats struct {
	MinorFaults   uint64
	MajorFaults   uint64
	Evictions     uint64
	Discards      uint64
	Notification  uint64
	Reclaims      uint64
	ArbiterVetoes uint64
}

// Arbiter lets a fleet-level policy approve or veto each eviction victim
// the replacement algorithm proposes, across process owners. Approve is
// consulted after the clock algorithm has already decided the page is
// cold (and before the owner is notified); returning false recycles the
// page to the active list and the scan moves on. Voluntarily surrendered
// pages bypass arbitration — their owner has already given them up.
//
// Arbitration is advisory, not absolute: when a single reclaim pass
// accumulates more than two batches of vetoes, the VMM stops consulting
// the arbiter for the rest of the pass. A policy that vetoes everything
// would otherwise livelock reclaim exactly the way an over-aggressive
// EvictionScheduled veto loop would.
type Arbiter interface {
	Approve(owner *Proc, pg mem.PageID) bool
}

// VMM is the simulated virtual memory manager. One VMM instance models
// one machine; multiple Procs share its physical frames.
type VMM struct {
	Clock *Clock
	costs Costs

	frames int // total physical frames
	pinned int // frames mlocked away by signalmem
	used   int // resident frames across all procs

	lowWater int // reclaim trigger threshold (free frames)
	batch    int // eviction cluster size (SWAP_CLUSTER_MAX)

	procs     []*Proc
	active    refQueue
	inactive  refQueue
	reclaimIn bool
	arbiter   Arbiter

	// reclaimStuck is set when a reclaim pass cannot reach its target
	// (every page referenced, vetoed, or locked). Until something is
	// freed — or a retry interval elapses — further page-ins skip the
	// futile scan instead of re-running it, as a real kernel would back
	// off rather than livelock in direct reclaim.
	reclaimStuck  bool
	sinceStuckTry int

	stats Stats
}

// MinPhysBytes is the smallest machine New accepts: enough frames for
// the reclaim low-water mark and batch size to be meaningful. CLIs can
// validate against it up front instead of catching New's panic.
const MinPhysBytes = 64 * mem.PageSize

// New creates a machine with physBytes of physical memory.
func New(clock *Clock, physBytes uint64, costs Costs) *VMM {
	frames := int(physBytes / mem.PageSize)
	if frames < 64 {
		panic("vmm: physical memory too small")
	}
	v := &VMM{
		Clock:    clock,
		costs:    costs,
		frames:   frames,
		lowWater: 32,
		batch:    32,
	}
	v.active.refs, _ = freeQueues.Get()
	v.inactive.refs, _ = freeQueues.Get()
	return v
}

// Host tables a dead machine hands to the next one (Release): the
// queues' backing arrays, empty, and the procs' page tables.
var (
	freeQueues     mem.FreeList[[]pageRef]
	freePageTables mem.FreeList[[]pageInfo]
)

// freeProcs holds the processes of released machines, each with its
// released Space.
var freeProcs mem.FreeList[*Proc]

// putPageTable retires the page table of a Proc the Go collector found
// unreachable; held is the Proc's, nil once Release took the table.
func putPageTable(held *[]pageInfo) {
	if *held != nil {
		freePageTables.Put(*held)
	}
}

// Release recycles the machine's host tables — both queues, and every
// process's page table, flag table and page bodies — and its processes
// with their Spaces, for the next machine in the process. Only call it
// when the machine is dead: no process of it, nor its Space, may be used
// again.
func (v *VMM) Release() {
	for i, p := range v.procs {
		p.space.Release()
		freePageTables.Put(p.pages)
		*p = Proc{space: p.space, held: p.held}
		*p.held = nil
		freeProcs.Put(p)
		v.procs[i] = nil
	}
	v.procs = v.procs[:0]
	freeQueues.Put(v.active.refs[:0], v.inactive.refs[:0])
	v.active, v.inactive = refQueue{}, refQueue{}
}

// Costs returns the machine's latency model.
func (v *VMM) Costs() Costs { return v.costs }

// TotalFrames returns physical memory size in frames.
func (v *VMM) TotalFrames() int { return v.frames }

// FreeFrames returns the number of unallocated, unpinned frames.
func (v *VMM) FreeFrames() int { return v.frames - v.pinned - v.used }

// UsedFrames returns the number of resident frames across all processes.
func (v *VMM) UsedFrames() int { return v.used }

// PinnedFrames returns the number of frames pinned via Pin.
func (v *VMM) PinnedFrames() int { return v.pinned }

// Stats returns global counters.
func (v *VMM) Stats() Stats { return v.stats }

// SetArbiter installs (or, with nil, removes) the eviction arbiter.
func (v *VMM) SetArbiter(a Arbiter) { v.arbiter = a }

// CheckAccounting recounts every page table and verifies the O(1)
// residency counters — per-proc Proc.resident and the machine-wide used
// total — against ground truth, plus the pinned-frame bounds. Fleet soak
// tests call it after every collection to prove the bookkeeping stays
// exact when the arbiter takes pages from a different owner than the
// faulting tenant.
func (v *VMM) CheckAccounting() error {
	total := 0
	for _, p := range v.procs {
		n := 0
		for _, f := range p.flags {
			if f&mem.PFResident != 0 {
				n++
			}
		}
		if n != p.resident {
			return fmt.Errorf("vmm: proc %d (%s) resident counter %d, table says %d", p.id, p.name, p.resident, n)
		}
		total += n
	}
	if total != v.used {
		return fmt.Errorf("vmm: used counter %d, page tables say %d", v.used, total)
	}
	if v.pinned < 0 || v.pinned > v.frames {
		return fmt.Errorf("vmm: pinned %d out of range [0,%d]", v.pinned, v.frames)
	}
	return nil
}

// Pin removes n frames from circulation, as signalmem's mmap+touch+mlock
// does (§5.1). Pinning under pressure triggers reclaim immediately.
func (v *VMM) Pin(n int) {
	if n <= 0 {
		return
	}
	v.pinned += n
	if v.pinned > v.frames {
		v.pinned = v.frames
	}
	if v.FreeFrames() < v.lowWater {
		v.reclaim()
	}
}

// Unpin returns n pinned frames to circulation.
func (v *VMM) Unpin(n int) {
	v.pinned -= n
	if v.pinned < 0 {
		v.pinned = 0
	}
}

// maxSpacePages bounds a process's address space: queue entries hold
// page numbers in 32 bits.
const maxSpacePages = 1 << 32

// NewProc creates a process owning a fresh address space of spaceBytes.
// It panics on a space of 2^32 pages (16 TB) or more.
func (v *VMM) NewProc(name string, spaceBytes uint64) *Proc {
	npg := spaceBytes / mem.PageSize
	if spaceBytes%mem.PageSize != 0 {
		npg++
	}
	if npg >= maxSpacePages {
		panic(fmt.Sprintf("vmm: address space of %d bytes is %d pages or more", spaceBytes, uint64(maxSpacePages)))
	}
	p, ok := freeProcs.Get()
	if !ok {
		// A machine dropped without Release still hands its page
		// tables on, as its Spaces do their bodies.
		// held is reachable only through p and is no part of the
		// cycle p forms with its Space, so its finalizer runs once p
		// is unreachable.
		p = &Proc{held: new([]pageInfo)}
		runtime.SetFinalizer(p.held, putPageTable)
	}
	*p = Proc{
		vmm:   v,
		id:    int32(len(v.procs)),
		name:  name,
		pages: mem.TakeTable(&freePageTables, npg),
		space: p.space,
		held:  p.held,
	}
	*p.held = p.pages
	if p.space == nil {
		p.space = mem.NewSpace(spaceBytes, v.Clock, v.costs.WordAccess, p)
	} else {
		p.space.Reuse(spaceBytes, v.Clock, v.costs.WordAccess, p)
	}
	p.flags = p.space.PageFlags()
	v.procs = append(v.procs, p)
	return p
}

// makeResident allocates a frame for (p, pg), reclaiming if needed.
// Idempotent on an already-resident page: the fault-latency Advance in
// the touch path fires due clock events, and one of them (a delayed
// notification handler, a pressure spike) may touch the same page and
// service the fault first — the original faulter then finds the page
// present, as a second faulter does under the kernel's page lock.
func (v *VMM) makeResident(p *Proc, pg mem.PageID) {
	if p.flags[pg]&mem.PFResident != 0 {
		p.flags[pg] |= mem.PFReferenced
		return
	}
	v.used++
	p.resident++
	if uint64(p.resident) > p.stats.PeakResident {
		p.stats.PeakResident = uint64(p.resident)
	}
	p.flags[pg] = mem.PFResident | mem.PFReferenced
	p.space.SwapIn(pg)
	v.pushActive(p, pg)
	if v.FreeFrames() < v.lowWater && !v.reclaimIn {
		if v.reclaimStuck {
			v.sinceStuckTry++
			if v.sinceStuckTry < v.batch {
				return
			}
			v.sinceStuckTry = 0
		}
		v.reclaim()
	}
}

func (v *VMM) pushActive(p *Proc, pg mem.PageID) {
	pi := &p.pages[pg]
	pi.stamp++
	pi.queued = true
	v.active.push(pageRef{p.id, uint32(pg), pi.stamp})
	v.maybeCompactQueues()
}

func (v *VMM) pushInactive(p *Proc, pg mem.PageID) {
	pi := &p.pages[pg]
	pi.stamp++
	pi.queued = true
	v.inactive.push(pageRef{p.id, uint32(pg), pi.stamp})
	v.maybeCompactQueues()
}

// maybeCompactQueues drops lazily-invalidated entries once they dominate,
// keeping reclaim passes proportional to resident pages rather than to
// historical churn. The trigger counts live entries only (stale included,
// consumed head zones excluded) — the same quantity the pre-refQueue
// slices measured — because reclaim's scan budget is derived from it:
// compacting on a different schedule would change when budget-bounded
// passes give up, and with it the eviction sequence.
func (v *VMM) maybeCompactQueues() {
	if v.active.size()+v.inactive.size() < 4*(v.used+64) {
		return
	}
	keep := func(r pageRef) bool {
		_, _, ok := v.valid(r)
		return ok
	}
	v.active.compact(keep)
	v.inactive.compact(keep)
}

// valid reports whether a queue entry still refers to a live queued page.
func (v *VMM) valid(r pageRef) (*Proc, *pageInfo, bool) {
	p := v.procs[r.pid]
	pi := &p.pages[r.page]
	if !pi.queued || pi.stamp != r.stamp || p.flags[r.page]&mem.PFResident == 0 {
		return p, pi, false
	}
	return p, pi, true
}

// reclaim frees frames until the machine is back above the low watermark
// (plus one eviction batch of slack). It models kswapd plus direct
// reclaim: refill the inactive list from the active list with a clock
// pass, then evict from the head of the inactive FIFO, notifying
// registered owners first.
func (v *VMM) reclaim() {
	if v.reclaimIn {
		return
	}
	v.reclaimIn = true
	defer func() { v.reclaimIn = false }()
	v.stats.Reclaims++

	target := v.lowWater + v.batch
	defer func() { v.reclaimStuck = v.FreeFrames() < v.lowWater }()
	// Bound total scanning so a fully-referenced memory still terminates:
	// two full passes clear every reference bit and then evict.
	budget := 2*(v.active.size()+v.inactive.size()) + 4*v.batch
	vetoes := 0
	for v.FreeFrames() < target && budget > 0 {
		budget--
		if v.inactive.size() < v.batch {
			v.refillInactive()
		}
		if v.inactive.size() == 0 {
			if v.active.size() == 0 {
				break // nothing evictable: every page locked or gone
			}
			continue
		}
		r := v.inactive.pop()
		p, pi, ok := v.valid(r)
		if !ok {
			continue
		}
		pg := mem.PageID(r.page)
		pi.queued = false
		if pi.locked || pi.servicing {
			v.pushActive(p, pg)
			continue
		}
		f := p.flags[pg]
		if f&mem.PFReferenced != 0 && f&mem.PFSurrendered == 0 {
			// Second chance: recently used, promote back to active.
			p.flags[pg] = f &^ mem.PFReferenced
			v.pushActive(p, pg)
			continue
		}
		// Cross-owner arbitration: a fleet policy may redirect pressure
		// away from this owner. Desperation cap: past 2×batch vetoes the
		// pass stops asking, so reclaim cannot be starved by policy.
		if v.arbiter != nil && f&mem.PFSurrendered == 0 && vetoes < 2*v.batch {
			if !v.arbiter.Approve(p, pg) {
				vetoes++
				v.stats.ArbiterVetoes++
				v.pushActive(p, pg)
				continue
			}
		}
		// Schedule the page for eviction: notify the owner first, unless
		// the page was voluntarily surrendered (already processed).
		if p.handler != nil && f&mem.PFSurrendered == 0 {
			v.stats.Notification++
			v.Clock.Advance(v.costs.Signal)
			p.handler.EvictionScheduled(pg)
			// The handler may have touched the page (vetoing eviction),
			// locked it, or discarded it altogether.
			f = p.flags[pg]
			if f&mem.PFResident == 0 || f&mem.PFReferenced != 0 || pi.locked {
				if f&mem.PFResident != 0 && !pi.queued {
					v.pushActive(p, pg)
				}
				continue
			}
		}
		v.evict(p, pg)
	}
}

// refillInactive runs one clock pass over the active list, moving
// unreferenced pages to the inactive FIFO and giving referenced pages a
// second chance.
func (v *VMM) refillInactive() {
	moved, scanned := 0, 0
	limit := v.active.size()
	for moved < v.batch && scanned < limit && v.active.size() > 0 {
		scanned++
		r := v.active.pop()
		p, pi, ok := v.valid(r)
		if !ok {
			continue
		}
		pg := mem.PageID(r.page)
		pi.queued = false
		if pi.locked || pi.servicing {
			v.pushActive(p, pg)
			continue
		}
		if f := p.flags[pg]; f&mem.PFReferenced != 0 {
			p.flags[pg] = f &^ mem.PFReferenced
			v.pushActive(p, pg)
			continue
		}
		v.pushInactive(p, pg)
		moved++
	}
}

// evict writes (p, pg) to the swap device and frees its frame. The
// host keeps only the page's nonzero words while it is out (SwapOut;
// makeResident restores them).
func (v *VMM) evict(p *Proc, pg mem.PageID) {
	p.flags[pg] = mem.PFEvicted
	p.space.SwapOut(pg)
	p.resident--
	p.pages[pg].queued = false
	v.used--
	v.stats.Evictions++
	p.stats.Evictions++
	v.Clock.Advance(v.costs.EvictIO)
}

// ProcStats are per-process counters.
type ProcStats struct {
	MinorFaults uint64
	MajorFaults uint64
	Evictions   uint64
	Discards    uint64
	ProtFaults  uint64
	// PeakResident is the high-water mark of the process's resident
	// page count — the memory-side axis of the heap-policy Pareto
	// experiment.
	PeakResident uint64
}

// Proc is one process: an address space plus its page table. It
// implements mem.FaultToucher, so it services every access of the Space
// that is not to a resident, unprotected page.
type Proc struct {
	vmm      *VMM
	id       int32
	name     string
	space    *mem.Space
	pages    []pageInfo
	flags    []uint8     // the space's page-flag side array (hot state bits)
	held     *[]pageInfo // pages, for the cleanup that retires it if the Proc is dropped
	handler  Handler
	stats    ProcStats
	resident int // maintained count of Resident pages, so sampling is O(1)
}

// Space returns the process's address space.
func (p *Proc) Space() *mem.Space { return p.space }

// Name returns the process name (for diagnostics).
func (p *Proc) Name() string { return p.name }

// Stats returns per-process fault counters.
func (p *Proc) Stats() ProcStats { return p.stats }

// Register subscribes the runtime to paging notifications, as the paper's
// runtime registers with the extended kernel at startup.
func (p *Proc) Register(h Handler) { p.handler = h }

// Handler returns the currently registered notification handler (nil if
// none). Fault-injection shims use it to interpose on the notification
// stream while forwarding to the original receiver.
func (p *Proc) Handler() Handler { return p.handler }

// Touch is one full word access, clock cost included, for callers that
// touch a page without reading or writing a word of it (veto touches,
// page replays).
func (p *Proc) Touch(pg mem.PageID, write bool) {
	p.vmm.Clock.Advance(p.vmm.costs.WordAccess)
	p.FaultTouch(pg, write)
}

// FaultTouch implements mem.FaultToucher: the state machine of one word
// access after its clock cost has been charged. The clock advance may
// have fired events that changed the page's state (even made it
// resident), so every state is handled here.
func (p *Proc) FaultTouch(pg mem.PageID, write bool) {
	v := p.vmm
	f := p.flags[pg]
	switch {
	case f&mem.PFResident != 0:
		p.flags[pg] = (f | mem.PFReferenced) &^ mem.PFSurrendered
		if f&mem.PFProtected != 0 {
			p.flags[pg] &^= mem.PFProtected
			p.stats.ProtFaults++
			if p.handler != nil {
				v.stats.Notification++
				v.Clock.Advance(v.costs.Signal)
				p.handler.PageReloaded(pg, false)
			}
		}
	case f&mem.PFEvicted != 0:
		v.stats.MajorFaults++
		p.stats.MajorFaults++
		v.Clock.Advance(v.costs.MajorFault)
		// The page is locked for the duration of fault service, as the
		// kernel's page lock does: reclaim triggered while mapping the
		// frame must not steal it back.
		pi := &p.pages[pg]
		pi.servicing = true
		v.makeResident(p, pg)
		if p.handler != nil {
			v.stats.Notification++
			v.Clock.Advance(v.costs.Signal)
			p.handler.PageReloaded(pg, true)
		}
		pi.servicing = false
	default: // fresh
		v.stats.MinorFaults++
		p.stats.MinorFaults++
		v.Clock.Advance(v.costs.MinorFault)
		pi := &p.pages[pg]
		pi.servicing = true
		v.makeResident(p, pg)
		pi.servicing = false
	}
	_ = write
}

// TouchN charges n word accesses to page pg as one batch: the first
// access runs the full fault path (faults, residency, notifications),
// the remainder only advance the clock — after the first access the
// page is resident and referenced, so n-1 further touches could differ
// only in clock cost. The mark engine (gc.Marker) uses this to replay
// its recorded per-page access counts in ascending page order.
func (p *Proc) TouchN(pg mem.PageID, n uint64, write bool) {
	if n == 0 {
		return
	}
	p.Touch(pg, write)
	if n > 1 {
		p.vmm.Clock.Advance(time.Duration(n-1) * p.vmm.costs.WordAccess)
	}
}

// State returns the residency state of page pg.
func (p *Proc) State(pg mem.PageID) PageState {
	f := p.flags[pg]
	switch {
	case f&mem.PFResident != 0:
		return Resident
	case f&mem.PFEvicted != 0:
		return Evicted
	}
	return Fresh
}

// Resident reports whether pg occupies a frame.
func (p *Proc) Resident(pg mem.PageID) bool { return p.flags[pg]&mem.PFResident != 0 }

// Discard models madvise(MADV_DONTNEED): the page's frame (or swap slot)
// is released and its contents are dropped; the next touch is a cheap
// zero-fill fault (§3.3.2).
func (p *Proc) Discard(pg mem.PageID) {
	if p.flags[pg]&mem.PFResident != 0 {
		p.vmm.used--
		p.resident--
	}
	p.flags[pg] = 0
	pi := &p.pages[pg]
	pi.queued = false // lazy-invalidates any queue entry via stamp
	pi.stamp++
	p.space.ForgetPages(pg, pg+1)
	p.vmm.stats.Discards++
	p.stats.Discards++
}

// Relinquish models the paper's new vm_relinquish system call: the
// process voluntarily surrenders pages, which the VMM moves to the end of
// the inactive queue to be swapped out quickly, without re-notification
// (§3.4). Non-resident pages are ignored.
func (p *Proc) Relinquish(pgs []mem.PageID) {
	for _, pg := range pgs {
		f := p.flags[pg]
		if f&mem.PFResident == 0 || p.pages[pg].locked {
			continue
		}
		p.flags[pg] = (f | mem.PFSurrendered) &^ mem.PFReferenced
		pi := &p.pages[pg]
		pi.queued = false
		pi.stamp++
		p.vmm.pushInactive(p, pg)
	}
	// Relinquished pages are reclaimed at the next memory shortage; if the
	// machine is already short, collect them now.
	if p.vmm.FreeFrames() < p.vmm.lowWater && !p.vmm.reclaimIn {
		p.vmm.reclaim()
	}
}

// Protect disables access to a resident page (mprotect PROT_NONE). The
// next touch raises a protection fault delivered via PageReloaded. BC uses
// this to close the race between scanning a page and its eviction (§3.4).
func (p *Proc) Protect(pg mem.PageID) {
	if p.flags[pg]&mem.PFResident != 0 {
		p.flags[pg] |= mem.PFProtected
	}
}

// Unprotect re-enables access without a fault.
func (p *Proc) Unprotect(pg mem.PageID) { p.flags[pg] &^= mem.PFProtected }

// Protected reports whether the page is access-protected.
func (p *Proc) Protected(pg mem.PageID) bool { return p.flags[pg]&mem.PFProtected != 0 }

// Lock pins a resident page in memory (mlock); it will never be chosen
// for eviction. Touches the page in first if needed.
func (p *Proc) Lock(pg mem.PageID) {
	if p.flags[pg]&mem.PFResident == 0 {
		p.Touch(pg, true)
	}
	p.pages[pg].locked = true
}

// Unlock releases an mlock.
func (p *Proc) Unlock(pg mem.PageID) { p.pages[pg].locked = false }

// FreeFramesHint exposes the machine's free-frame count — the "available
// memory" figure a cooperative runtime may consult (as the heap-sizing
// advisors in the paper's related work do).
func (p *Proc) FreeFramesHint() int { return p.vmm.FreeFrames() }

// ResidentPages returns the number of this process's resident pages.
// The count is maintained at every state transition, so the live
// telemetry sampler can read it each tick without walking the table.
func (p *Proc) ResidentPages() int { return p.resident }

// String implements fmt.Stringer for diagnostics.
func (p *Proc) String() string {
	return fmt.Sprintf("proc %d (%s): %d pages, %d resident", p.id, p.name, len(p.pages), p.ResidentPages())
}
