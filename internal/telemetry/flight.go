package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"bookmarkgc/internal/trace"
)

// flightEvent is one entry in the flight ring: a trace span boundary or
// point event, kept so a dump can show what led up to an anomaly.
type flightEvent struct {
	TimeNS int64  `json:"t_ns"`
	Kind   string `json:"kind"` // "begin", "end", "point"
	Name   string `json:"name"`
	Arg1   int64  `json:"arg1,omitempty"`
	Arg2   int64  `json:"arg2,omitempty"`
}

// flightRing is a ring of the ringEvents most recent events. It grows
// by append until full, so a collector that records few events holds
// few. Overwrites count as drops: history lost before any dump
// captured it.
type flightRing struct {
	buf   []flightEvent
	next  int
	total uint64
}

func (r *flightRing) push(e flightEvent, ctrs *trace.Counters) {
	if len(r.buf) < ringEvents {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next] = e
		ctrs.Inc(trace.CTelemetryRingDrops)
	}
	r.next = (r.next + 1) % ringEvents
	r.total++
}

// tail returns the ring's contents oldest-first.
func (r *flightRing) tail() []flightEvent {
	out := make([]flightEvent, 0, len(r.buf))
	if len(r.buf) < ringEvents {
		return append(out, r.buf...)
	}
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
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

// bundle is the diagnostic JSON a dump writes.
type bundle struct {
	Schema    string             `json:"schema"`
	Reason    string             `json:"reason"`
	Tenant    string             `json:"tenant,omitempty"`
	SimTimeNS int64              `json:"sim_time_ns"`
	Collector string             `json:"collector"`
	RunError  string             `json:"run_error,omitempty"`
	Samples   map[string][]int64 `json:"samples"`
	Events    []flightEvent      `json:"events"`
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
	var now int64
	if c.clock != nil {
		now = int64(c.clock.Now())
	}
	tl := c.timelineLocked()
	b := bundle{
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
	pl := len(c.pauses) - 8
	if pl < 0 {
		pl = 0
	}
	for i := pl; i < len(c.pauses); i++ {
		b.Pauses = append(b.Pauses, renderPause(&c.pauses[i]))
	}
	if c.ctrs != nil {
		b.Counters = make(map[string]uint64, trace.NumCounters)
		for id := 0; id < trace.NumCounters; id++ {
			b.Counters[trace.Counter(id).String()] = c.ctrs.Get(trace.Counter(id))
		}
	}
	if err := os.MkdirAll(c.cfg.FlightDir, 0o755); err != nil {
		return
	}
	data, err := json.MarshalIndent(&b, "", " ")
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
