// Package trace is the structured observability layer of the simulator:
// a low-overhead event tracer for GC phases and VM-cooperation events,
// and a registry of monotonic counters, histograms, and per-class counter
// vectors. The paper's evaluation (Figs. 2–7) is built on exactly this
// kind of per-phase, per-event telemetry: pause breakdowns, page-movement
// counts, and bookmark traffic. Everything here is driven by the
// simulated clock, so traces are deterministic and never perturb the
// measured run.
//
// Two implementations of Tracer live here: Recorder, which appends
// fixed-size records to an in-memory buffer for later export (Chrome
// trace_event or JSONL, see export.go), and Nop, whose methods are empty.
// No call site asks a tracer whether it records: every site calls it,
// and the disabled path costs one interface call and allocates nothing.
package trace

import "time"

// TimeSource supplies timestamps; the simulator's vmm.Clock satisfies it.
type TimeSource interface {
	Now() time.Duration
}

// Phase identifies a span (a Begin/End pair) in the collector: either a
// whole stop-the-world pause or one phase within it.
type Phase uint8

const (
	// PhasePauseNursery is a minor-collection pause (all collectors).
	PhasePauseNursery Phase = iota
	// PhasePauseFull is a major-collection pause (all collectors).
	PhasePauseFull
	// PhasePauseCompact is a compacting-collection pause.
	PhasePauseCompact
	// PhaseNurseryScan is BC's nursery copy pass (remset + roots + Cheney).
	PhaseNurseryScan
	// PhaseMark is a full-heap marking pass.
	PhaseMark
	// PhaseSweep is a superpage + LOS sweep.
	PhaseSweep
	// PhaseCompactSelect is compaction target-superpage selection (§3.2).
	PhaseCompactSelect
	// PhaseCheneyForward is the compaction copy pass (Cheney forwarding).
	PhaseCheneyForward
	// PhaseFailSafe is the completeness fail-safe collection (§3.5).
	PhaseFailSafe
	// PhaseRootScan is the stack/global root enumeration at the start of
	// a collection (all collectors).
	PhaseRootScan

	numPhases
)

var phaseNames = [numPhases]string{
	PhasePauseNursery:  "pause:nursery",
	PhasePauseFull:     "pause:full",
	PhasePauseCompact:  "pause:compact",
	PhaseNurseryScan:   "nursery-scan",
	PhaseMark:          "mark",
	PhaseSweep:         "sweep",
	PhaseCompactSelect: "compact-select",
	PhaseCheneyForward: "cheney-forward",
	PhaseFailSafe:      "failsafe",
	PhaseRootScan:      "root-scan",
}

func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "invalid"
}

// NumPhases is the number of defined span kinds (for table-driven tests).
const NumPhases = int(numPhases)

// Event identifies an instant (point) event, mostly the VM-cooperation
// protocol of §3.3–3.4. Each event carries two integer arguments whose
// meaning is documented per constant; Arg names them for exporters.
type Event uint8

const (
	// EvEvictionScheduled: the VMM chose arg1=page as an eviction victim.
	EvEvictionScheduled Event = iota
	// EvPageDiscarded: arg1=page was empty and returned via madvise.
	EvPageDiscarded
	// EvPageProcessed: arg1=page was scanned and bookmarked before
	// relinquishment; arg2=objects bookmarked while processing it.
	EvPageProcessed
	// EvPageReloaded: arg1=page came back; arg2=1 if it was evicted
	// (major fault), 0 if it was only protected.
	EvPageReloaded
	// EvBookmarkCleared: reload bookkeeping for arg1=page decremented
	// arg2 incoming-bookmark counters (§3.4.2).
	EvBookmarkCleared
	// EvBookmarkDeferred: reload bookkeeping for arg1=page was postponed
	// because arg2 of its covered objects still straddle evicted pages.
	EvBookmarkDeferred
	// EvHeapShrink: the footprint target dropped to arg1 pages from arg2.
	EvHeapShrink
	// EvHeapRegrow: the footprint target rose to arg1 pages from arg2.
	EvHeapRegrow
	// EvPreventiveBookmark: arg1=page was processed while a collection
	// was in progress; its bookmarks joined the live worklist (§3.4.3).
	EvPreventiveBookmark
	// EvMemoryPinned: signalmem pinned arg1 frames (arg2=total pinned).
	EvMemoryPinned
	// EvResidencyRepaired: the collection-start audit found arg1=page out
	// of sync with the kernel and repaired the books; arg2=0 for a silent
	// eviction, 1 for an unnotified reload.
	EvResidencyRepaired
	// EvNotificationIgnored: a notification for arg1=page was rejected as
	// impossible; arg2=0 stale eviction, 1 duplicate eviction, 2 spurious
	// reload.
	EvNotificationIgnored

	numEvents
)

var eventNames = [numEvents]string{
	EvEvictionScheduled:   "eviction-scheduled",
	EvPageDiscarded:       "page-discarded",
	EvPageProcessed:       "page-processed",
	EvPageReloaded:        "page-reloaded",
	EvBookmarkCleared:     "bookmark-cleared",
	EvBookmarkDeferred:    "bookmark-deferred",
	EvHeapShrink:          "heap-shrink",
	EvHeapRegrow:          "heap-regrow",
	EvPreventiveBookmark:  "preventive-bookmark",
	EvMemoryPinned:        "memory-pinned",
	EvResidencyRepaired:   "residency-repaired",
	EvNotificationIgnored: "notification-ignored",
}

// eventArgNames names the two arguments of each event for exporters; an
// empty name means the argument is unused and omitted from output.
var eventArgNames = [numEvents][2]string{
	EvEvictionScheduled:   {"page", ""},
	EvPageDiscarded:       {"page", ""},
	EvPageProcessed:       {"page", "bookmarked"},
	EvPageReloaded:        {"page", "wasEvicted"},
	EvBookmarkCleared:     {"page", "decrements"},
	EvBookmarkDeferred:    {"page", "straddlers"},
	EvHeapShrink:          {"targetPages", "was"},
	EvHeapRegrow:          {"targetPages", "was"},
	EvPreventiveBookmark:  {"page", ""},
	EvMemoryPinned:        {"frames", "totalPinned"},
	EvResidencyRepaired:   {"page", "kind"},
	EvNotificationIgnored: {"page", "kind"},
}

func (e Event) String() string {
	if int(e) < len(eventNames) {
		return eventNames[e]
	}
	return "invalid"
}

// Arg returns the exporter name of argument i (0 or 1) of e; "" if unused.
func (e Event) Arg(i int) string {
	if int(e) < len(eventArgNames) && i >= 0 && i < 2 {
		return eventArgNames[e][i]
	}
	return ""
}

// NumEvents is the number of defined point-event kinds.
const NumEvents = int(numEvents)

// Tracer is the interface the runtime emits events through. Spans must
// nest properly per tracer (Begin/End in stack order); point events may
// fire anywhere, including inside spans.
type Tracer interface {
	// Begin opens a span of kind p at the current time.
	Begin(p Phase)
	// End closes the innermost open span of kind p.
	End(p Phase)
	// Point records an instant event with its two arguments.
	Point(e Event, arg1, arg2 int64)
}

// Nop is the disabled tracer: every method is an empty body.
type Nop struct{}

// Begin implements Tracer.
func (Nop) Begin(Phase) {}

// End implements Tracer.
func (Nop) End(Phase) {}

// Point implements Tracer.
func (Nop) Point(Event, int64, int64) {}

var _ Tracer = Nop{}
var _ Tracer = (*Recorder)(nil)

// Record is one trace entry: a span boundary or a point event. It is
// 32 bytes and value-typed, so recording is one slice append with no
// per-event allocation once the buffer has grown; the telemetry flight
// ring holds the same entries.
type Record struct {
	TS         time.Duration
	Arg1, Arg2 int64 // a point event's arguments
	Tid        int32
	Kind       RecordKind
	Code       uint8 // the Phase (RecBegin, RecEnd) or the Event (RecPoint)
}

// RecordKind says what a Record marks.
type RecordKind uint8

const (
	RecBegin RecordKind = iota
	RecEnd
	RecPoint
)

var recordKindNames = [...]string{RecBegin: "begin", RecEnd: "end", RecPoint: "point"}

func (k RecordKind) String() string {
	if int(k) < len(recordKindNames) {
		return recordKindNames[k]
	}
	return "invalid"
}

// Name returns the name of the record's span phase or point event.
func (r *Record) Name() string {
	if r.Kind == RecPoint {
		return Event(r.Code).String()
	}
	return Phase(r.Code).String()
}

// shared is the buffer and clock a Recorder and its Thread views share.
type shared struct {
	clock   TimeSource
	recs    []Record
	threads []string // tid-1 -> display name
}

// Recorder is the recording Tracer: events append to a shared in-memory
// buffer, exported after the run (export.go). Thread creates additional
// views over the same buffer with their own thread IDs, so multi-JVM runs
// interleave into one trace.
type Recorder struct {
	sh  *shared
	tid int32
}

// NewRecorder creates a recorder whose root thread is named name. ts may
// be nil and supplied later with SetClock (the simulator's clock is born
// inside sim.Run).
func NewRecorder(ts TimeSource, name string) *Recorder {
	if name == "" {
		name = "main"
	}
	return &Recorder{sh: &shared{clock: ts, threads: []string{name}}, tid: 1}
}

// SetClock installs the time source; events recorded with no clock carry
// timestamp zero.
func (r *Recorder) SetClock(ts TimeSource) { r.sh.clock = ts }

// Thread returns a tracer view writing into the same buffer under a new
// thread ID displayed as name.
func (r *Recorder) Thread(name string) *Recorder {
	r.sh.threads = append(r.sh.threads, name)
	return &Recorder{sh: r.sh, tid: int32(len(r.sh.threads))}
}

// Len returns the number of recorded events across all threads.
func (r *Recorder) Len() int { return len(r.sh.recs) }

func (r *Recorder) now() time.Duration {
	if r.sh.clock == nil {
		return 0
	}
	return r.sh.clock.Now()
}

// Begin implements Tracer.
func (r *Recorder) Begin(p Phase) {
	r.sh.recs = append(r.sh.recs, Record{TS: r.now(), Tid: r.tid, Kind: RecBegin, Code: uint8(p)})
}

// End implements Tracer.
func (r *Recorder) End(p Phase) {
	r.sh.recs = append(r.sh.recs, Record{TS: r.now(), Tid: r.tid, Kind: RecEnd, Code: uint8(p)})
}

// Point implements Tracer.
func (r *Recorder) Point(e Event, arg1, arg2 int64) {
	r.sh.recs = append(r.sh.recs, Record{TS: r.now(), Arg1: arg1, Arg2: arg2, Tid: r.tid, Kind: RecPoint, Code: uint8(e)})
}
