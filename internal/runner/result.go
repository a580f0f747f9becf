package runner

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"bookmarkgc/internal/gc"
	"bookmarkgc/internal/metrics"
	"bookmarkgc/internal/sim"
	"bookmarkgc/internal/trace"
	"bookmarkgc/internal/vmm"
)

// Pause is one stop-the-world interval, flattened to integers so a
// Result round-trips through JSON exactly.
type Pause struct {
	StartNS     int64  `json:"start_ns"`
	DurNS       int64  `json:"dur_ns"`
	Kind        uint8  `json:"kind"`
	MajorFaults uint64 `json:"major_faults,omitempty"`
}

// RunData is the serializable subset of one simulation's measurements
// that the experiment reduces consume. A single-process job yields one;
// a fleet job (several JVMs on one machine included) one per tenant.
type RunData struct {
	// Name labels the run within its job: the fleet tenant's name
	// (several identical JVMs included); empty for a single-process run.
	Name           string        `json:"name,omitempty"`
	ElapsedSecs    float64       `json:"elapsed_secs"`
	StartNS        int64         `json:"start_ns"`
	EndNS          int64         `json:"end_ns"`
	Pauses         []Pause       `json:"pauses,omitempty"`
	AllocatedBytes uint64        `json:"allocated_bytes"`
	Nursery        uint64        `json:"nursery,omitempty"`
	Full           uint64        `json:"full,omitempty"`
	Compactions    uint64        `json:"compactions,omitempty"`
	FailSafe       uint64        `json:"failsafe,omitempty"`
	Bookmarked     uint64        `json:"bookmarked,omitempty"`
	PagesEvicted   uint64        `json:"pages_evicted,omitempty"`
	Proc           vmm.ProcStats `json:"proc"`

	// Faults is the fault injector's tally, rendered, when the job
	// configured chaos.
	Faults string `json:"faults,omitempty"`

	// Err is the per-run failure (out of memory, typically); the sweep
	// treats such a configuration as a missing data point, not an engine
	// error. OOM says it was gc.ErrOutOfMemory: the live data does not
	// fit the heap, which a front end can tell the user how to fix.
	Err string `json:"err,omitempty"`
	OOM bool   `json:"oom,omitempty"`
}

// NewRunData flattens one sim.Result.
func NewRunData(r sim.Result) RunData {
	rd := RunData{
		ElapsedSecs:    r.ElapsedSecs,
		StartNS:        int64(r.Timeline.Start),
		EndNS:          int64(r.Timeline.End),
		AllocatedBytes: r.Mutator.AllocatedBytes,
		Nursery:        r.GCStats.Nursery,
		Full:           r.GCStats.Full,
		Compactions:    r.GCStats.Compactions,
		FailSafe:       r.GCStats.FailSafe,
		Bookmarked:     r.GCStats.Bookmarked,
		PagesEvicted:   r.GCStats.PagesEvicted,
		Proc:           r.ProcStats,
	}
	for _, p := range r.Timeline.Pauses {
		rd.Pauses = append(rd.Pauses, Pause{
			StartNS:     int64(p.Start),
			DurNS:       int64(p.Dur),
			Kind:        uint8(p.Kind),
			MajorFaults: p.MajorFaults,
		})
	}
	if r.Faults != nil {
		rd.Faults = r.Faults.String()
	}
	if r.Err != nil {
		rd.Err = r.Err.Error()
		rd.OOM = errors.As(r.Err, new(gc.ErrOutOfMemory))
	}
	return rd
}

// OK reports whether the run completed.
func (rd RunData) OK() bool { return rd.Err == "" }

// Summary is the one line a completed run is reported by, collector
// running program: gcsim prints it for every run, gctrace record for the
// run it recorded.
func (rd RunData) Summary(collector sim.CollectorKind, program string) string {
	tl := rd.Timeline()
	round := func(d time.Duration) time.Duration { return d.Round(10 * time.Microsecond) }
	return fmt.Sprintf(
		"%s/%s: exec=%.3fs alloc=%dB gcs=%d (nursery=%d full=%d compact=%d failsafe=%d) avgPause=%v maxPause=%v majflt=%d bookmarked=%d evictedPages=%d",
		collector, program,
		rd.ElapsedSecs, rd.AllocatedBytes,
		tl.Count(), rd.Nursery, rd.Full, rd.Compactions, rd.FailSafe,
		round(tl.AvgPause()), round(tl.MaxPause()),
		rd.Proc.MajorFaults, rd.Bookmarked, rd.PagesEvicted)
}

// Timeline reconstructs the pause timeline, for the metrics the reports
// derive (AvgPause, BMU, percentiles). Every field is integral, so the
// reconstruction is exact whether the RunData came from a live run or
// from the JSONL store.
func (rd RunData) Timeline() metrics.Timeline {
	t := metrics.Timeline{
		Start: time.Duration(rd.StartNS),
		End:   time.Duration(rd.EndNS),
	}
	for _, p := range rd.Pauses {
		t.Pauses = append(t.Pauses, metrics.Pause{
			Start:       time.Duration(p.StartNS),
			Dur:         time.Duration(p.DurNS),
			Kind:        metrics.PauseKind(p.Kind),
			MajorFaults: p.MajorFaults,
		})
	}
	return t
}

// Result is one job's outcome, keyed by the job's content hash. It is
// immutable once published: the pool shares one *Result between
// duplicate jobs and cache hits.
type Result struct {
	Hash string    `json:"hash"`
	Runs []RunData `json:"runs,omitempty"`

	// Fleet carries the fleet-level measurements of a fleet job (nil
	// otherwise); Runs then holds one entry per tenant, named.
	Fleet *sim.FleetStats `json:"fleet,omitempty"`

	// Counters carries the job's event-counter totals by name when the
	// job asked for them. Deliberately not omitempty: an enabled-but-empty
	// registry must survive a cache round trip as non-nil, so reduces
	// behave identically on fresh and cached results.
	Counters map[string]uint64 `json:"counters"`

	// Err is an engine-level failure: invalid configuration, a panic in
	// the simulator, or a timeout. Distinct from RunData.Err (a run that
	// completed by failing, e.g. out of memory), which is deterministic
	// and cacheable; engine errors are not persisted.
	Err      string `json:"err,omitempty"`
	TimedOut bool   `json:"timed_out,omitempty"`

	// WallNS is the host wall-clock cost of executing the job. Cache
	// metadata only — never part of any report, so reports stay
	// byte-identical across machines and worker counts.
	WallNS int64 `json:"wall_ns,omitempty"`

	// Cached marks a result served from the persistent store (not
	// serialized; a stored result is by definition not marked).
	Cached bool `json:"-"`
}

// OK reports whether the job executed and every run completed.
func (r *Result) OK() bool {
	if r == nil || r.Err != "" || len(r.Runs) == 0 {
		return false
	}
	for _, rd := range r.Runs {
		if !rd.OK() {
			return false
		}
	}
	return true
}

// One returns the single run's data (the zero RunData for an errored
// job), which is what every single-process reduce consumes.
func (r *Result) One() RunData {
	if r == nil || len(r.Runs) == 0 {
		return RunData{Err: "no runs"}
	}
	return r.Runs[0]
}

// FirstErr returns the first line of the engine error, or else of the
// first failed run's error: "" when the job and all its runs completed.
func (r *Result) FirstErr() string {
	msg := r.Err
	for i := 0; msg == "" && i < len(r.Runs); i++ {
		msg = r.Runs[i].Err
	}
	first, _, _ := strings.Cut(msg, "\n")
	return first
}

// cacheable reports whether the result may be persisted: deterministic
// outcomes only. Timeouts and panics depend on the host, not the
// configuration, so a resumed sweep retries them.
func (r *Result) cacheable() bool { return r.Err == "" }

// countersMap snapshots a registry into a name->value map, non-nil even
// when every counter is zero.
func countersMap(c *trace.Counters) map[string]uint64 {
	m := make(map[string]uint64)
	for i := 0; i < trace.NumCounters; i++ {
		if v := c.Get(trace.Counter(i)); v != 0 {
			m[trace.Counter(i).String()] = v
		}
	}
	return m
}
