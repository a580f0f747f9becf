package trace

import (
	"math/bits"
	"slices"
)

// Counter identifies one monotonic counter in the registry. The set
// covers the quantities the paper's evaluation and DESIGN.md's ablations
// reason about: bookmark traffic, incoming-counter churn, page movement,
// remembered-set filtering, and compaction copy volume.
type Counter uint8

const (
	// CObjectsBookmarked counts bookmark bits set (§3.4).
	CObjectsBookmarked Counter = iota
	// CIncomingBumps counts incoming-bookmark counter increments.
	CIncomingBumps
	// CIncomingDecrements counts incoming-bookmark counter decrements.
	CIncomingDecrements
	// CPagesDiscarded counts empty pages returned via madvise (§3.3.2).
	CPagesDiscarded
	// CPagesProcessed counts occupied pages scanned and relinquished.
	CPagesProcessed
	// CPagesReloaded counts pages brought back by faults.
	CPagesReloaded
	// CRemsetFlushes counts write-buffer overflow filterings (§3.1).
	CRemsetFlushes
	// CRemsetEntriesFiltered counts buffered slots pruned at flush.
	CRemsetEntriesFiltered
	// CRemsetEntriesCarded counts buffered slots demoted to card marks.
	CRemsetEntriesCarded
	// CSuperpagesAcquired counts superpages assigned to a size class.
	CSuperpagesAcquired
	// CSuperpagesReleased counts superpages returned to the free pool.
	CSuperpagesReleased
	// CLOSAllocs counts large-object allocations.
	CLOSAllocs
	// CLOSPagesAllocated counts pages placed under large objects.
	CLOSPagesAllocated
	// CBumpAllocs counts bump-pointer allocations (nursery/semispace).
	CBumpAllocs
	// CPromotedBytes counts bytes copied nursery -> mature.
	CPromotedBytes
	// CForwardedObjects counts objects moved by compaction.
	CForwardedObjects
	// CForwardedBytes counts bytes moved by compaction (§3.2).
	CForwardedBytes
	// CHeapShrinks counts footprint-target reductions (§3.3.3).
	CHeapShrinks
	// CHeapRegrows counts footprint-target raises (§7 extension).
	CHeapRegrows
	// CPreventiveBookmarks counts pages processed mid-collection (§3.4.3).
	CPreventiveBookmarks

	// Hardening counters: BC's defenses against a kernel whose
	// notifications are lost, late, repeated, or forged (see
	// internal/fault and DESIGN.md's fault model).

	// CSilentEvictions counts pages found evicted without notification at
	// the collection-start residency audit.
	CSilentEvictions
	// CUnnotifiedReloads counts pages found resident again without a
	// reload notification (the audit redid the reload bookkeeping).
	CUnnotifiedReloads
	// CStaleNotices counts eviction notifications ignored because the
	// page had already left (or was discarded) by delivery time.
	CStaleNotices
	// CDuplicateNotices counts eviction notifications ignored because the
	// page was already mid-eviction in BC's books.
	CDuplicateNotices
	// CSpuriousReloads counts reload notifications ignored because the
	// kernel could not legitimately have sent them.
	CSpuriousReloads
	// CGCRequestBackoffs counts doublings of the handler-requested GC
	// threshold after a collection freed nothing.
	CGCRequestBackoffs
	// CFailSafesForced counts full collections routed to the fail-safe
	// because notifications stopped being trustworthy.
	CFailSafesForced
	// CDeferredUnbookmarks counts reload releases postponed because an
	// object covered by the page's record still straddles an evicted
	// page (its recorded edges are not yet scannable again).
	CDeferredUnbookmarks

	// Fault-injection counters (internal/fault): what the injector did to
	// the notification stream.

	// CChaosEvictsDropped counts eviction notifications swallowed.
	CChaosEvictsDropped
	// CChaosEvictsDelayed counts evictions held until the next safepoint.
	CChaosEvictsDelayed
	// CChaosEvictsDuplicated counts evictions delivered twice.
	CChaosEvictsDuplicated
	// CChaosEvictsReordered counts evictions buffered for shuffled delivery.
	CChaosEvictsReordered
	// CChaosReloadsDropped counts reload notifications swallowed.
	CChaosReloadsDropped
	// CChaosSpuriousReloads counts forged reload notifications injected.
	CChaosSpuriousReloads
	// CChaosMuted counts notifications suppressed by uncooperative mode.
	CChaosMuted
	// CChaosPressureSpikes counts injected SignalMem pressure spikes.
	CChaosPressureSpikes

	// Workload counters (internal/workload): allocation-trace recording
	// and replay traffic.

	// CWorkloadEventsRecorded counts events written to a trace, footer
	// included.
	CWorkloadEventsRecorded
	// CWorkloadEventsReplayed counts trace events applied by a replayer.
	CWorkloadEventsReplayed
	// CWorkloadAllocsReplayed counts allocations driven from a trace.
	CWorkloadAllocsReplayed
	// CWorkloadFreeHints counts advisory free-hint events seen on replay.
	CWorkloadFreeHints
	// CWorkloadBlocksWritten counts CRC-framed trace blocks flushed.
	CWorkloadBlocksWritten
	// CWorkloadBlocksRead counts CRC-framed trace blocks decoded.
	CWorkloadBlocksRead

	// Mark counters (internal/gc): the mark engine's telemetry. They
	// describe the marked graph and are deterministic for any worker
	// count; only the per-worker byte split (VMarkBytesByWorker) depends
	// on goroutine interleaving, and it never appears in experiment
	// reports, which must stay byte-identical across -mark-workers
	// values.

	// CMarkRounds counts mark rounds (trace + replay cycles).
	CMarkRounds
	// CMarkObjects counts objects scanned by the mark engine.
	CMarkObjects
	// CMarkBytes counts bytes of objects scanned by the mark engine.
	CMarkBytes

	// Telemetry counters (internal/telemetry): the live-sampling layer's
	// own bookkeeping. Samples and flight dumps are clock-driven and
	// deterministic; ring drops depend on how much history the flight
	// recorder was configured to keep and never appear in experiment
	// reports, which must stay byte-identical across schedules.

	// CTelemetrySamples counts time-series samples taken by the sampler.
	CTelemetrySamples
	// CTelemetryFlightDumps counts flight-recorder bundles written.
	CTelemetryFlightDumps
	// CTelemetryRingDrops counts flight-ring entries overwritten before
	// any dump captured them.
	CTelemetryRingDrops

	// Heap-policy counters (internal/heappolicy): the pluggable
	// heap-limit control loop and the fleet balancer built on it.

	// CPolicyObservations counts signals fed to a heap policy that the
	// policy wanted (its Wants gate passed).
	CPolicyObservations
	// CBalancerRounds counts fleet-balancer redistribution rounds.
	CBalancerRounds
	// CPolicyClamps counts tenants whose fleet cap came out below the
	// policy's own target during a balancer round.
	CPolicyClamps

	// Eviction-notice outcome counters (internal/core): every notice BC's
	// handler fields ends in exactly one of CStaleNotices,
	// CDuplicateNotices or the seven below, so their sum is the number
	// of notices delivered and their ratio to CNoticesBookmarked is the
	// veto churn one eviction costs.

	// CNoticesSilentRepair counts notices that named a page already
	// evicted without BC's knowledge (repaired as a silent eviction).
	CNoticesSilentRepair
	// CNoticesMustKeepVeto counts notices vetoed because the page must
	// stay: a nursery page, a superpage header, a nursery-pointer holder.
	CNoticesMustKeepVeto
	// CNoticesVictimDiscarded counts notices whose page was itself empty
	// and was discarded.
	CNoticesVictimDiscarded
	// CNoticesPaidInEmpties counts notices vetoed after other empty pages
	// were discarded in the victim's place (§3.4.3).
	CNoticesPaidInEmpties
	// CNoticesNotedOnly counts notices where the page was let go
	// unprocessed (resize-only variant, or bookmark state invalid).
	CNoticesNotedOnly
	// CNoticesBookmarked counts notices whose page was scanned,
	// bookmarked and relinquished (§3.4).
	CNoticesBookmarked
	// CNoticesRedirected counts notices vetoed in favour of another
	// victim, which was processed instead (§7 victim policy).
	CNoticesRedirected

	numCounters
)

// counterTable names every counter and assigns it to one group: the
// unit gcsim -list prints the registry by, and tests sum over. A group
// is its members in declaration order; groups are ordered by their first
// member. The eviction-notice outcomes ("notices") are disjoint and
// exhaustive: they sum to the notices BC's handler received.
var counterTable = [numCounters]struct{ name, group string }{
	CObjectsBookmarked:      {"objects_bookmarked", "collector"},
	CIncomingBumps:          {"incoming_bumps", "collector"},
	CIncomingDecrements:     {"incoming_decrements", "collector"},
	CPagesDiscarded:         {"pages_discarded", "collector"},
	CPagesProcessed:         {"pages_processed", "collector"},
	CPagesReloaded:          {"pages_reloaded", "collector"},
	CRemsetFlushes:          {"remset_flushes", "collector"},
	CRemsetEntriesFiltered:  {"remset_entries_filtered", "collector"},
	CRemsetEntriesCarded:    {"remset_entries_carded", "collector"},
	CSuperpagesAcquired:     {"superpages_acquired", "collector"},
	CSuperpagesReleased:     {"superpages_released", "collector"},
	CLOSAllocs:              {"los_allocs", "collector"},
	CLOSPagesAllocated:      {"los_pages_allocated", "collector"},
	CBumpAllocs:             {"bump_allocs", "collector"},
	CPromotedBytes:          {"promoted_bytes", "collector"},
	CForwardedObjects:       {"forwarded_objects", "collector"},
	CForwardedBytes:         {"forwarded_bytes", "collector"},
	CHeapShrinks:            {"heap_shrinks", "collector"},
	CHeapRegrows:            {"heap_regrows", "collector"},
	CPreventiveBookmarks:    {"preventive_bookmarks", "collector"},
	CSilentEvictions:        {"silent_evictions_repaired", "hardening"},
	CUnnotifiedReloads:      {"unnotified_reloads_repaired", "hardening"},
	CStaleNotices:           {"stale_notices_ignored", "notices"},
	CDuplicateNotices:       {"duplicate_notices_ignored", "notices"},
	CSpuriousReloads:        {"spurious_reloads_ignored", "hardening"},
	CGCRequestBackoffs:      {"gc_request_backoffs", "hardening"},
	CFailSafesForced:        {"failsafes_forced", "hardening"},
	CDeferredUnbookmarks:    {"deferred_unbookmarks", "hardening"},
	CChaosEvictsDropped:     {"chaos_evicts_dropped", "chaos"},
	CChaosEvictsDelayed:     {"chaos_evicts_delayed", "chaos"},
	CChaosEvictsDuplicated:  {"chaos_evicts_duplicated", "chaos"},
	CChaosEvictsReordered:   {"chaos_evicts_reordered", "chaos"},
	CChaosReloadsDropped:    {"chaos_reloads_dropped", "chaos"},
	CChaosSpuriousReloads:   {"chaos_spurious_reloads", "chaos"},
	CChaosMuted:             {"chaos_muted", "chaos"},
	CChaosPressureSpikes:    {"chaos_pressure_spikes", "chaos"},
	CWorkloadEventsRecorded: {"workload_events_recorded", "workload"},
	CWorkloadEventsReplayed: {"workload_events_replayed", "workload"},
	CWorkloadAllocsReplayed: {"workload_allocs_replayed", "workload"},
	CWorkloadFreeHints:      {"workload_free_hints", "workload"},
	CWorkloadBlocksWritten:  {"workload_blocks_written", "workload"},
	CWorkloadBlocksRead:     {"workload_blocks_read", "workload"},
	CMarkRounds:             {"mark_rounds", "mark"},
	CMarkObjects:            {"mark_objects", "mark"},
	CMarkBytes:              {"mark_bytes", "mark"},
	CTelemetrySamples:       {"telemetry_samples", "telemetry"},
	CTelemetryFlightDumps:   {"telemetry_flight_dumps", "telemetry"},
	CTelemetryRingDrops:     {"telemetry_ring_drops", "telemetry"},
	CPolicyObservations:     {"heap_policy_observations", "heap-policy"},
	CBalancerRounds:         {"balancer_rounds", "heap-policy"},
	CPolicyClamps:           {"balancer_policy_clamps", "heap-policy"},
	CNoticesSilentRepair:    {"notices_silent_repair", "notices"},
	CNoticesMustKeepVeto:    {"notices_mustkeep_veto", "notices"},
	CNoticesVictimDiscarded: {"notices_victim_discarded", "notices"},
	CNoticesPaidInEmpties:   {"notices_paid_in_empties", "notices"},
	CNoticesNotedOnly:       {"notices_noted_only", "notices"},
	CNoticesBookmarked:      {"notices_bookmarked", "notices"},
	CNoticesRedirected:      {"notices_redirected", "notices"},
}

// CounterGroups lists the counter groups.
func CounterGroups() []string {
	var groups []string
	for _, row := range counterTable {
		if !slices.Contains(groups, row.group) {
			groups = append(groups, row.group)
		}
	}
	return groups
}

// CountersIn lists the counters of group.
func CountersIn(group string) []Counter {
	var ids []Counter
	for id, row := range counterTable {
		if row.group == group {
			ids = append(ids, Counter(id))
		}
	}
	return ids
}

func (c Counter) String() string {
	if int(c) < len(counterTable) {
		return counterTable[c].name
	}
	return "invalid"
}

// NumCounters is the number of defined counters.
const NumCounters = int(numCounters)

// Hist identifies one histogram in the registry.
type Hist uint8

const (
	// HDiscardBatch observes pages discarded per eviction notification —
	// the word-at-a-time aggressive discard of §3.4.3.
	HDiscardBatch Hist = iota
	// HPageBookmarks observes objects bookmarked per processed page.
	HPageBookmarks

	numHists
)

var histNames = [numHists]string{
	HDiscardBatch:  "discard_batch_pages",
	HPageBookmarks: "page_bookmarks",
}

func (h Hist) String() string {
	if int(h) < len(histNames) {
		return histNames[h]
	}
	return "invalid"
}

// NumHists is the number of defined histograms.
const NumHists = int(numHists)

// Vec identifies one counter vector (a counter family indexed by a small
// integer, e.g. a size-class index).
type Vec uint8

const (
	// VSuperAllocsByClass counts superpage acquisitions per size-class
	// index.
	VSuperAllocsByClass Vec = iota

	// VMarkBytesByWorker counts bytes scanned per mark-worker index.
	// The split is schedule-dependent; only the sum is deterministic.
	VMarkBytesByWorker

	numVecs
)

var vecNames = [numVecs]string{
	VSuperAllocsByClass: "superpage_allocs_by_class",
	VMarkBytesByWorker:  "mark_bytes_by_worker",
}

func (v Vec) String() string {
	if int(v) < len(vecNames) {
		return vecNames[v]
	}
	return "invalid"
}

// NumVecs is the number of defined counter vectors.
const NumVecs = int(numVecs)

// histBuckets is the number of power-of-two histogram buckets; bucket i
// holds values whose bit length is i (bucket 0 holds zero), the last
// bucket saturating.
const histBuckets = 16

// Histogram accumulates a distribution in power-of-two buckets.
type Histogram struct {
	Buckets [histBuckets]uint64
	Count   uint64
	Sum     uint64
	Max     uint64
}

func (h *Histogram) observe(v uint64) {
	b := bits.Len64(v)
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.Buckets[b]++
	h.Count++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
}

// Mean returns the mean observed value (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Counters is the registry: fixed arrays of counters and histograms plus
// growable counter vectors. All methods are nil-receiver safe, so the
// disabled configuration (a nil *Counters threaded through the stack)
// costs one nil check per site and allocates nothing.
type Counters struct {
	vals  [numCounters]uint64
	hists [numHists]Histogram
	vecs  [numVecs][]uint64
}

// NewCounters returns an empty registry.
func NewCounters() *Counters { return &Counters{} }

// Inc adds 1 to counter id.
func (c *Counters) Inc(id Counter) {
	if c != nil {
		c.vals[id]++
	}
}

// Add adds n to counter id.
func (c *Counters) Add(id Counter, n uint64) {
	if c != nil {
		c.vals[id] += n
	}
}

// Get returns counter id's value (0 on a nil registry).
func (c *Counters) Get(id Counter) uint64 {
	if c == nil {
		return 0
	}
	return c.vals[id]
}

// Observe records v into histogram id.
func (c *Counters) Observe(id Hist, v uint64) {
	if c != nil {
		c.hists[id].observe(v)
	}
}

// Histogram returns a copy of histogram id (zero value on nil).
func (c *Counters) Histogram(id Hist) Histogram {
	if c == nil {
		return Histogram{}
	}
	return c.hists[id]
}

// AddVec adds n to element idx of vector id, growing it as needed.
func (c *Counters) AddVec(id Vec, idx int, n uint64) {
	if c == nil || idx < 0 {
		return
	}
	for len(c.vecs[id]) <= idx {
		c.vecs[id] = append(c.vecs[id], 0)
	}
	c.vecs[id][idx] += n
}

// VecValues returns a copy of vector id's elements (nil when empty).
func (c *Counters) VecValues(id Vec) []uint64 {
	if c == nil || len(c.vecs[id]) == 0 {
		return nil
	}
	out := make([]uint64, len(c.vecs[id]))
	copy(out, c.vecs[id])
	return out
}
