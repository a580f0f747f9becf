// Package telemetry is the simulator's live observability layer: a
// deterministic time-series sampler driven by the simulated clock, a
// per-pause phase-attribution tracer, and a flight recorder that dumps a
// diagnostic bundle when a run goes wrong. Every pause statistic it
// reports is metrics.Timeline's, computed over the pauses it attributed.
//
// Determinism contract: the sampler is scheduled on the simulated clock
// at a fixed interval and only *reads* bookkeeping (page counts, fault
// counters, allocation totals) — it never touches pages or advances the
// clock, so an instrumented run is bit-identical to an uninstrumented
// one, and the exported series bytes are identical for any -jobs
// value. Everything host-visible (the HTTP handlers of package serve)
// reads under a mutex; everything sim-side runs on the simulation
// goroutine.
package telemetry

import (
	"encoding/binary"
	"slices"
	"sync"
	"time"

	"bookmarkgc/internal/gc"
	"bookmarkgc/internal/metrics"
	"bookmarkgc/internal/trace"
	"bookmarkgc/internal/vmm"
)

// Column identifies one time-series column. Values are int64: either a
// level read at the sample instant (pages, frames) or a cumulative
// counter (faults, bytes), whose rate is the per-interval delta.
type Column int

const (
	// ColTimeNS is the sample's simulated timestamp in nanoseconds.
	ColTimeNS Column = iota
	// ColHeapUsedPages is the collector-accounted heap footprint.
	ColHeapUsedPages
	// ColResidentPages is the process's resident page count.
	ColResidentPages
	// ColPinnedFrames is memory pinned away by signalmem.
	ColPinnedFrames
	// ColFreeFrames is the machine's unallocated frames.
	ColFreeFrames
	// ColMinorFaults is the cumulative minor (zero-fill) fault count.
	ColMinorFaults
	// ColMajorFaults is the cumulative major (disk) fault count.
	ColMajorFaults
	// ColEvictions is the cumulative count of this process's pages evicted.
	ColEvictions
	// ColAllocBytes is cumulative bytes allocated by the mutator.
	ColAllocBytes
	// ColBookmarks is cumulative objects bookmarked (BC only).
	ColBookmarks
	// ColPagesEvicted is cumulative heap pages processed for eviction (BC).
	ColPagesEvicted
	// ColGCs is the cumulative collection count (nursery + full).
	ColGCs
	// ColInPause is 1 when the sample landed inside a stop-the-world pause.
	ColInPause
	// ColHeapLimitPages is the policy-effective heap limit in pages:
	// the configured heap clamped by the heap-limit policy's current
	// target (internal/heappolicy). With no policy it equals the
	// configured heap exactly.
	ColHeapLimitPages

	numColumns
)

var columnNames = [numColumns]string{
	ColTimeNS:         "time_ns",
	ColHeapUsedPages:  "heap_used_pages",
	ColResidentPages:  "resident_pages",
	ColPinnedFrames:   "pinned_frames",
	ColFreeFrames:     "free_frames",
	ColMinorFaults:    "minor_faults",
	ColMajorFaults:    "major_faults",
	ColEvictions:      "evictions",
	ColAllocBytes:     "alloc_bytes",
	ColBookmarks:      "objects_bookmarked",
	ColPagesEvicted:   "pages_evicted",
	ColGCs:            "gcs",
	ColInPause:        "in_pause",
	ColHeapLimitPages: "heap_limit_pages",
}

func (c Column) String() string {
	if int(c) < len(columnNames) {
		return columnNames[c]
	}
	return "invalid"
}

// NumColumns is the number of series columns (for table-driven tests).
const NumColumns = int(numColumns)

// Series is the columnar sample store. Each column is a run of
// zigzag varints of the column's second differences — how much a
// sample's change from its predecessor differs from the change before
// it, as in Gorilla's timestamps (Pelkonen et al., VLDB 2015) — so a
// steady timestamp, a constant level or a counter rising at a steady
// rate costs about one byte per sample. Arithmetic wraps in int64:
// every value round-trips.
//
// head is the encoder's state, which is the cursor after the newest
// sample: its values are the newest row. marks holds the cursors at
// the start of every block of samples held, so a read of the last t
// samples decodes at most one block plus t values per column however
// long the run.
//
// The zero Series keeps every sample, in blocks of seriesBlock. A
// windowed one (window > 0, a flight recorder's) uses blocks of window
// samples and holds only the newest two: when a third starts, the
// oldest is dropped and the rest slide to the front of the columns, so
// it always holds at least the newest window samples in memory that
// does not grow with the run.
type Series struct {
	n      int
	window int // 0: keep every sample; else the block length, two held
	base   int // index of the oldest sample held
	cols   [numColumns][]byte
	head   [numColumns]cursor
	marks  [][numColumns]cursor // marks[k] is at sample base + k*block
}

// seriesBlock is the number of samples between two checkpoints of a
// series that keeps every sample.
const seriesBlock = 4096

// cursor is a decoding position in one column: the byte offset of the
// next sample's varint, and the value and first difference of the
// sample before it.
type cursor struct {
	off       int
	val, step int64
}

// next decodes the sample at c and advances past it.
func (c *cursor) next(col []byte) int64 {
	dd, k := binary.Varint(col[c.off:])
	c.off += k
	c.step += dd
	c.val += c.step
	return c.val
}

// Len returns the number of samples taken, held or not.
func (s *Series) Len() int { return s.n }

// block returns the number of samples between two checkpoints.
func (s *Series) block() int {
	if s.window > 0 {
		return s.window
	}
	return seriesBlock
}

func (s *Series) push(row *[numColumns]int64) {
	if s.n%s.block() == 0 {
		if s.window > 0 && len(s.marks) == 2 {
			s.dropOldest()
		}
		s.marks = append(s.marks, s.head)
	}
	for i := range s.cols {
		if s.cols[i] == nil && s.window > 0 {
			// Two blocks of about a byte a sample: most columns
			// never regrow.
			s.cols[i] = make([]byte, 0, 2*s.window)
		}
		h := &s.head[i]
		d := row[i] - h.val
		s.cols[i] = binary.AppendVarint(s.cols[i], d-h.step)
		*h = cursor{off: len(s.cols[i]), val: row[i], step: d}
	}
	s.n++
}

// dropOldest discards a windowed series' oldest block: the newer one
// slides to the front of every column, in place.
func (s *Series) dropOldest() {
	keep := s.marks[1]
	for i := range s.cols {
		off := keep[i].off
		s.cols[i] = s.cols[i][:copy(s.cols[i], s.cols[i][off:])]
		keep[i].off = 0
		s.head[i].off -= off
	}
	s.marks[0] = keep
	s.marks = s.marks[:1]
	s.base += s.window
}

// last returns the newest sample's value of col (0 when empty).
func (s *Series) last(col Column) int64 { return s.head[col].val }

// tailFrom returns the first sample index of a tail of tail samples
// (every sample held when tail <= 0).
func (s *Series) tailFrom(tail int) int {
	if tail > 0 && tail < s.n-s.base {
		return s.n - tail
	}
	return s.base
}

// column decodes col's samples from index from (at least base) to the
// newest, starting at the checkpoint at or before from.
func (s *Series) column(col Column, from int) []int64 {
	out := make([]int64, s.n-from)
	if len(out) == 0 {
		return out
	}
	blk := s.block()
	b := (from - s.base) / blk
	c, src := s.marks[b][col], s.cols[col]
	for k := s.base + b*blk; k < from; k++ {
		c.next(src)
	}
	for k := range out {
		out[k] = c.next(src)
	}
	return out
}

// rows calls emit with each sample held in order, decoding one row at a
// time.
func (s *Series) rows(emit func(row *[numColumns]int64)) {
	if s.n == 0 {
		return
	}
	c := s.marks[0]
	var row [numColumns]int64
	for k := s.base; k < s.n; k++ {
		for i := range c {
			row[i] = c[i].next(s.cols[i])
		}
		emit(&row)
	}
}

// PauseAttr is one pause — the same record gc.Base.Pause puts on the
// run's timeline — with its phase breakdown: for every trace span kind,
// the self time spent in it (time in the span but not in any nested
// span) and the major faults taken there. The sum of PhaseNS over all
// phases equals Dur exactly; the pause span's own self time is the
// uninstrumented remainder ("other"). FaultStall is the portion of the
// pause spent waiting on the disk: MajorFaults times the machine's
// major-fault cost, the dominant term in the paper's thrashing pauses.
type PauseAttr struct {
	metrics.Pause
	FaultStall  time.Duration
	PhaseNS     [trace.NumPhases]time.Duration
	PhaseFaults [trace.NumPhases]uint64
}

// Other returns the pause's uninstrumented self time: the part of the
// pause outside every collector phase span.
func (a *PauseAttr) Other() time.Duration { return a.PhaseNS[a.Kind.Phase()] }

// numPauseKinds covers metrics.PauseNursery/Full/Compact.
const numPauseKinds = 3

// The flight recorder: ringEvents bounds the event ring, a bundle
// includes the sampleTail most recent samples and the bundlePauses most
// recent attributed pauses, a pause of pauseThreshold or longer (the
// order of one disk-bound mark pass) dumps one, and a collector with no
// shared quota writes at most maxDumps.
const (
	ringEvents     = 4096
	sampleTail     = 256
	bundlePauses   = 8
	pauseThreshold = 500 * time.Millisecond
	maxDumps       = 16
)

// Config tunes the telemetry layer. The zero value is usable: defaults
// are filled in by New.
type Config struct {
	// SampleEvery is the sampling interval in simulated time (default 1ms).
	SampleEvery time.Duration
	// FlightDir, when non-empty, is where flight-recorder bundles are
	// written; empty disables dumping (the ring still records).
	FlightDir string
	// Tenant, when non-empty, tags flight-dump filenames and bundle
	// metadata with a tenant identity so concurrent per-tenant dumps in
	// one fleet run cannot collide in one FlightDir.
	Tenant string
	// Quota is the dump budget the collector draws on: a fleet-wide one
	// shared across tenants (see DumpQuota), so a noisy tenant exhausts
	// only its own allowance, or when nil a private one of maxDumps.
	Quota *DumpQuota
}

// span is one open trace span on the attribution stack. segStart and
// segFaults mark where its *current* self-time segment began; nested
// spans close the segment and reopen it when they end.
type span struct {
	phase     trace.Phase
	segStart  time.Duration
	segFaults uint64
}

// Collector accumulates a run's telemetry. Create with New, wrap the
// run's tracer with Tracer, and hand it to sim.RunConfig.Telemetry —
// sim.Run calls Attach and RunEnded. All exported readers lock, so an
// HTTP server (package serve) can serve snapshots while the simulation
// runs.
type Collector struct {
	mu  sync.Mutex
	cfg Config

	clock *vmm.Clock
	v     *vmm.VMM
	env   *gc.Env
	col   gc.Collector
	ctrs  *trace.Counters

	collectorName  string
	majorFaultCost time.Duration

	next   time.Duration // next sample's grid timestamp
	tickFn func()        // c.tick, bound once so rescheduling does not allocate
	series Series

	stack []span
	cur   *PauseAttr // &open inside a pause, else nil
	open  PauseAttr

	// pauses holds the attributed pauses: every one, or with pauseTail
	// > 0 (a flight recorder's) only the newest pauseTail.
	pauses    []PauseAttr
	pauseTail int

	ring          flightRing
	dumpSeq       int
	lastFailSafes uint64
	lastBackoffs  uint64
	flightDumps   uint64

	ended  bool
	runErr error
}

// New returns a collector with cfg's zero fields defaulted. It keeps
// the whole series, for exports and the live endpoints.
func New(cfg Config) *Collector {
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = time.Millisecond
	}
	if cfg.Quota == nil {
		cfg.Quota = NewDumpQuota(maxDumps, maxDumps, 0)
	}
	c := &Collector{cfg: cfg}
	c.tickFn = c.tick
	return c
}

// NewFlightRecorder returns a collector that keeps only what a flight
// bundle reads: of the series, a window of at least the newest
// sampleTail samples; of the attributed pauses, the newest
// bundlePauses. Nothing it holds grows with the run. Its exports, tails
// and Pauses cover what it holds alone; its bundles' pause percentiles
// read the collector's timeline, so they are exact over the run. A
// fleet arms one per tenant.
func NewFlightRecorder(cfg Config) *Collector {
	c := New(cfg)
	c.series.window = sampleTail
	c.pauseTail = bundlePauses
	return c
}

// Attach wires the collector to a run and schedules the first sample.
// Call once, after the environment exists and before the mutator steps.
func (c *Collector) Attach(v *vmm.VMM, env *gc.Env, col gc.Collector, ctrs *trace.Counters) {
	c.mu.Lock()
	c.v = v
	c.env = env
	c.col = col
	c.ctrs = ctrs
	c.clock = v.Clock
	c.collectorName = col.Name()
	c.majorFaultCost = v.Costs().MajorFault
	c.next = v.Clock.Now()
	if ctrs != nil {
		c.lastFailSafes = ctrs.Get(trace.CFailSafesForced)
		c.lastBackoffs = ctrs.Get(trace.CGCRequestBackoffs)
	}
	at := c.next
	c.mu.Unlock()
	v.Clock.Schedule(at, c.tickFn)
}

// tick is the sampler event: record one sample stamped at its grid time
// and reschedule one interval later, until the run has ended. When the
// clock jumped several intervals (a long pause), the rescheduled event is
// already due and fires again within the same Advance, so the grid never
// skips — sample timestamps are a fixed arithmetic sequence regardless of
// how the run advanced time, which is what makes series bytes
// schedule-independent.
func (c *Collector) tick() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ended {
		return
	}
	c.sampleLocked(c.next)
	c.next += c.cfg.SampleEvery
	c.clock.Schedule(c.next, c.tickFn)
}

// sampleLocked appends one row stamped at. Reads bookkeeping only.
func (c *Collector) sampleLocked(at time.Duration) {
	ps := c.env.Proc.Stats()
	gs := c.col.Stats()
	var row [numColumns]int64
	row[ColTimeNS] = int64(at)
	row[ColHeapUsedPages] = int64(c.col.UsedPages())
	row[ColResidentPages] = int64(c.env.Proc.ResidentPages())
	row[ColPinnedFrames] = int64(c.v.PinnedFrames())
	row[ColFreeFrames] = int64(c.v.FreeFrames())
	row[ColMinorFaults] = int64(ps.MinorFaults)
	row[ColMajorFaults] = int64(ps.MajorFaults)
	row[ColEvictions] = int64(ps.Evictions)
	row[ColAllocBytes] = int64(gs.BytesAlloc)
	row[ColBookmarks] = int64(gs.Bookmarked)
	row[ColPagesEvicted] = int64(gs.PagesEvicted)
	row[ColGCs] = int64(gs.Nursery + gs.Full)
	row[ColHeapLimitPages] = int64(c.env.HeapLimitPages())
	if c.cur != nil {
		row[ColInPause] = 1
	}
	c.series.push(&row)
	c.ctrs.Inc(trace.CTelemetrySamples)
}

// RunEnded finalizes the run: sim.Run calls it from its finish path,
// with the run's failure (nil on success). An out-of-memory death dumps
// a flight bundle.
func (c *Collector) RunEnded(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ended {
		return
	}
	c.ended = true
	c.runErr = err
	if err != nil {
		c.dumpLocked("oom")
	}
}

// charge adds a closed self-time segment to the active pause's buckets.
func (c *Collector) charge(p trace.Phase, dur time.Duration, faults uint64) {
	if c.cur == nil {
		return
	}
	c.cur.PhaseNS[p] += dur
	c.cur.PhaseFaults[p] += faults
}

// spanBegin handles a Begin from the wrapped tracer.
func (c *Collector) spanBegin(p trace.Phase) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.clock == nil {
		return
	}
	now := c.clock.Now()
	faults := c.env.Proc.Stats().MajorFaults
	c.ring.push(trace.Record{TS: now, Kind: trace.RecBegin, Code: uint8(p)}, c.ctrs)
	if n := len(c.stack); n > 0 {
		top := &c.stack[n-1]
		c.charge(top.phase, now-top.segStart, faults-top.segFaults)
	} else if _, ok := metrics.PauseKindOf(p); ok {
		c.open = PauseAttr{}
		c.cur = &c.open
	}
	c.stack = append(c.stack, span{phase: p, segStart: now, segFaults: faults})
	if p == trace.PhaseFailSafe {
		c.dumpLocked("failsafe")
	}
}

// spanEnd handles an End from the wrapped tracer: close the top span's
// segment, pop down to the innermost open span of phase p, and restart
// the parent's segment. Spans above p are ones an out-of-memory unwind
// left open — Base.Pause's deferred close ends the pause, not the phase
// spans inside it — and the top one keeps their time. When the popped
// span was the pause itself, the attribution takes the pause record
// Base.Pause has just put on the collector's timeline.
func (c *Collector) spanEnd(p trace.Phase) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.clock == nil || len(c.stack) == 0 {
		return
	}
	now := c.clock.Now()
	faults := c.env.Proc.Stats().MajorFaults
	c.ring.push(trace.Record{TS: now, Kind: trace.RecEnd, Code: uint8(p)}, c.ctrs)
	top := c.stack[len(c.stack)-1]
	c.charge(top.phase, now-top.segStart, faults-top.segFaults)
	i := len(c.stack) - 1
	for i > 0 && c.stack[i].phase != p {
		i--
	}
	c.stack = c.stack[:i]
	if n := len(c.stack); n > 0 {
		parent := &c.stack[n-1]
		parent.segStart = now
		parent.segFaults = faults
		return
	}
	if c.cur == nil {
		return
	}
	attr := c.cur
	c.cur = nil
	tl := c.col.Stats().Timeline.Pauses
	attr.Pause = tl[len(tl)-1]
	attr.FaultStall = time.Duration(attr.MajorFaults) * c.majorFaultCost
	c.recordPause(attr)
	if attr.Dur >= pauseThreshold {
		c.dumpLocked("long-pause")
	}
	if c.ctrs != nil {
		fs, bo := c.ctrs.Get(trace.CFailSafesForced), c.ctrs.Get(trace.CGCRequestBackoffs)
		if fs > c.lastFailSafes || bo > c.lastBackoffs {
			c.lastFailSafes, c.lastBackoffs = fs, bo
			c.dumpLocked("chaos-escalation")
		}
	}
}

// recordPause keeps a finished pause, dropping the oldest held once a
// flight recorder holds pauseTail.
func (c *Collector) recordPause(a *PauseAttr) {
	if c.pauseTail > 0 && len(c.pauses) == c.pauseTail {
		c.pauses = c.pauses[:copy(c.pauses, c.pauses[1:])]
	}
	c.pauses = append(c.pauses, *a)
}

// point handles a Point from the wrapped tracer: flight-ring only.
func (c *Collector) point(e trace.Event, a1, a2 int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.clock == nil {
		return
	}
	c.ring.push(trace.Record{TS: c.clock.Now(), Arg1: a1, Arg2: a2, Kind: trace.RecPoint, Code: uint8(e)}, c.ctrs)
}

// attributor is the tracer wrapper Tracer returns: every event goes to
// the inner tracer unchanged, then feeds the attribution and the flight
// ring. It reads the clock but never advances it.
type attributor struct {
	inner trace.Tracer
	c     *Collector
}

func (a attributor) Begin(p trace.Phase) {
	a.inner.Begin(p)
	a.c.spanBegin(p)
}

func (a attributor) End(p trace.Phase) {
	a.c.spanEnd(p)
	a.inner.End(p)
}

func (a attributor) Point(e trace.Event, a1, a2 int64) {
	a.inner.Point(e, a1, a2)
	a.c.point(e, a1, a2)
}

// Tracer wraps inner (which may be trace.Nop{}) so the collector sees
// every span and point the run emits.
func (c *Collector) Tracer(inner trace.Tracer) trace.Tracer {
	if inner == nil {
		inner = trace.Nop{}
	}
	return attributor{inner: inner, c: c}
}

// --- snapshot accessors (all lock; safe while the run is in flight) ---

// SampleCount returns the number of samples taken.
func (c *Collector) SampleCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.series.Len()
}

// ColumnTail returns up to tail recent values of column col (every
// sample held when tail <= 0).
func (c *Collector) ColumnTail(col Column, tail int) []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.series.column(col, c.series.tailFrom(tail))
}

// SeriesTail returns up to tail recent values of every column (every
// sample held when tail <= 0), keyed by column name. One lock covers every column, so all
// have the same length even while the run samples.
func (c *Collector) SeriesTail(tail int) map[string][]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seriesTailLocked(tail)
}

func (c *Collector) seriesTailLocked(tail int) map[string][]int64 {
	from := c.series.tailFrom(tail)
	cols := make(map[string][]int64, numColumns)
	for col := Column(0); col < numColumns; col++ {
		cols[col.String()] = c.series.column(col, from)
	}
	return cols
}

// Pauses returns a copy of every attributed pause held (a flight
// recorder holds the newest few).
func (c *Collector) Pauses() []PauseAttr {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]PauseAttr, len(c.pauses))
	copy(out, c.pauses)
	return out
}

// Timeline returns every attributed pause held as a metrics.Timeline.
func (c *Collector) Timeline() metrics.Timeline {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.timelineLocked()
}

// timelineLocked returns the attributed pauses of the given kinds (every
// kind when none is given) as a metrics.Timeline, whose Percentile,
// MaxPause and TotalPause are every pause statistic telemetry reports.
func (c *Collector) timelineLocked(kinds ...metrics.PauseKind) metrics.Timeline {
	var tl metrics.Timeline
	for i := range c.pauses {
		if p := c.pauses[i].Pause; len(kinds) == 0 || slices.Contains(kinds, p.Kind) {
			tl.Record(p)
		}
	}
	return tl
}

// FlightDumps returns the number of flight bundles written.
func (c *Collector) FlightDumps() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int(c.flightDumps)
}

// CollectorName returns the attached collector's name ("" before Attach).
func (c *Collector) CollectorName() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.collectorName
}

// SimTime returns the last sampled simulated timestamp.
func (c *Collector) SimTime() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Duration(c.series.last(ColTimeNS))
}
