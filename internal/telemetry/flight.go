package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"bookmarkgc/internal/metrics"
	"bookmarkgc/internal/trace"
)

// eventJSON is a flight ring entry rendered for a bundle.
type eventJSON struct {
	TimeNS int64  `json:"t_ns"`
	Kind   string `json:"kind"` // "begin", "end", "point"
	Name   string `json:"name"`
	Arg1   int64  `json:"arg1,omitempty"`
	Arg2   int64  `json:"arg2,omitempty"`
}

// ringChunk is how many events the flight ring allocates at a time.
const ringChunk = 256

// flightRing is a ring of the ringEvents most recent trace records: the
// span boundaries and point events that led up to an anomaly. It takes
// its slots a chunk at a time as it first reaches them, so a collector
// that records few events holds few, and growing copies nothing.
// Overwrites count as drops: history lost before any dump captured it.
type flightRing struct {
	chunks [ringEvents / ringChunk]*[ringChunk]trace.Record
	next   int // the slot the next event takes
	total  uint64
}

func (r *flightRing) push(e trace.Record, ctrs *trace.Counters) {
	ch := &r.chunks[r.next/ringChunk]
	if *ch == nil {
		*ch = new([ringChunk]trace.Record)
	}
	(*ch)[r.next%ringChunk] = e
	if r.total >= ringEvents {
		ctrs.Inc(trace.CTelemetryRingDrops)
	}
	r.next = (r.next + 1) % ringEvents
	r.total++
}

// held returns the number of events the ring holds.
func (r *flightRing) held() int { return int(min(r.total, ringEvents)) }

// tail returns the ring's contents oldest-first, rendered.
func (r *flightRing) tail() []eventJSON {
	n := r.held()
	out := make([]eventJSON, n)
	for k := range out {
		i := (r.next - n + k + ringEvents) % ringEvents
		e := &r.chunks[i/ringChunk][i%ringChunk]
		out[k] = eventJSON{TimeNS: int64(e.TS), Kind: e.Kind.String(), Name: e.Name(), Arg1: e.Arg1, Arg2: e.Arg2}
	}
	return out
}

// pauseJSON is a PauseAttr rendered for a bundle: phases as a name map
// (self time only, zero phases omitted).
type pauseJSON struct {
	StartNS      int64            `json:"start_ns"`
	DurNS        int64            `json:"dur_ns"`
	Kind         string           `json:"kind"`
	MajorFaults  uint64           `json:"major_faults"`
	FaultStallNS int64            `json:"fault_stall_ns"`
	OtherNS      int64            `json:"other_ns"`
	Phases       map[string]int64 `json:"phases,omitempty"`
}

func renderPause(a *PauseAttr) pauseJSON {
	pj := pauseJSON{
		StartNS:      int64(a.Start),
		DurNS:        int64(a.Dur),
		Kind:         a.Kind.String(),
		MajorFaults:  a.MajorFaults,
		FaultStallNS: int64(a.FaultStall),
		OtherNS:      int64(a.Other()),
	}
	for p, ns := range a.PhaseNS {
		if ns == 0 || trace.Phase(p) == a.Kind.Phase() {
			continue
		}
		if pj.Phases == nil {
			pj.Phases = make(map[string]int64)
		}
		pj.Phases[trace.Phase(p).String()] = int64(ns)
	}
	return pj
}

// renderPausesLocked renders the newest tail pauses held (every one
// when tail <= 0), nil when there are none.
func (c *Collector) renderPausesLocked(tail int) []pauseJSON {
	ps := c.pauses
	if tail > 0 && tail < len(ps) {
		ps = ps[len(ps)-tail:]
	}
	if len(ps) == 0 {
		return nil
	}
	out := make([]pauseJSON, len(ps))
	for i := range ps {
		out[i] = renderPause(&ps[i])
	}
	return out
}

// bundle is the diagnostic JSON a dump writes.
type bundle struct {
	Schema    string             `json:"schema"`
	Reason    string             `json:"reason"`
	Tenant    string             `json:"tenant,omitempty"`
	SimTimeNS int64              `json:"sim_time_ns"`
	Collector string             `json:"collector"`
	RunError  string             `json:"run_error,omitempty"`
	Samples   map[string][]int64 `json:"samples"`
	Events    []eventJSON        `json:"events"`
	Pauses    []pauseJSON        `json:"pauses"`
	Counters  map[string]uint64  `json:"counters,omitempty"`
	PauseP50  int64              `json:"pause_p50_ns"`
	PauseP99  int64              `json:"pause_p99_ns"`
	PauseMax  int64              `json:"pause_max_ns"`
}

// dumpLocked writes a flight bundle named for reason. Called with c.mu
// held, on the simulation goroutine; file IO is host-side and does not
// advance the simulated clock. No-op without a FlightDir or once the
// quota refuses (it is charged up front: a failed host write forfeits the
// slot).
func (c *Collector) dumpLocked(reason string) {
	if c.cfg.FlightDir == "" || !c.cfg.Quota.TryTenant(c.cfg.Tenant) {
		return
	}
	b := c.bundleLocked(reason)
	if err := os.MkdirAll(c.cfg.FlightDir, 0o755); err != nil {
		return
	}
	data, err := json.MarshalIndent(b, "", " ")
	if err != nil {
		return
	}
	c.dumpSeq++
	name := fmt.Sprintf("flight-%03d-%s.json", c.dumpSeq, reason)
	if c.cfg.Tenant != "" {
		name = fmt.Sprintf("flight-%s-%03d-%s.json", c.cfg.Tenant, c.dumpSeq, reason)
	}
	if os.WriteFile(filepath.Join(c.cfg.FlightDir, name), data, 0o644) == nil {
		c.flightDumps++
		c.ctrs.Inc(trace.CTelemetryFlightDumps)
	}
}

// bundleLocked assembles the bundle a dump for reason writes. Called
// with c.mu held.
func (c *Collector) bundleLocked(reason string) *bundle {
	var now int64
	if c.clock != nil {
		now = int64(c.clock.Now())
	}
	var tl metrics.Timeline
	if c.col != nil {
		tl = c.col.Stats().Timeline
	}
	b := &bundle{
		Schema:    "gcsim-flight/v1",
		Reason:    reason,
		Tenant:    c.cfg.Tenant,
		SimTimeNS: now,
		Collector: c.collectorName,
		Samples:   c.seriesTailLocked(sampleTail),
		Events:    c.ring.tail(),
		PauseP50:  int64(tl.Percentile(50)),
		PauseP99:  int64(tl.Percentile(99)),
		PauseMax:  int64(tl.MaxPause()),
	}
	if c.runErr != nil {
		b.RunError = c.runErr.Error()
	}
	b.Pauses = c.renderPausesLocked(bundlePauses)
	if c.ctrs != nil {
		b.Counters = make(map[string]uint64, trace.NumCounters)
		for id := 0; id < trace.NumCounters; id++ {
			b.Counters[trace.Counter(id).String()] = c.ctrs.Get(trace.Counter(id))
		}
	}
	return b
}
