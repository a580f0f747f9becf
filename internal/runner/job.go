// Package runner is the sweep-execution engine behind the experiment
// harness. It decomposes an experiment's configuration matrix into
// independent Jobs — one fully-specified simulation each — and executes
// them on a bounded worker pool with per-job timeout, cancellation of
// nothing shared (each job owns its clock, VMM, and trace sink), and
// panic isolation, so one impossible configuration cannot kill a sweep.
//
// Every Job has a canonical content hash over everything that determines
// its outcome (collector, program spec, heap/phys bytes, pressure
// schedule, seed, chaos regime, ...). Results are memoized by that hash
// in memory and, optionally, persisted to a JSONL store so interrupted
// sweeps resume incrementally and repeated sweeps are free. Because the
// simulator is deterministic, a hash hit is indistinguishable from a
// fresh run, and reports reduced from memoized results are byte-identical
// regardless of worker count or scheduling order.
package runner

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"

	"bookmarkgc/internal/fault"
	"bookmarkgc/internal/heappolicy"
	"bookmarkgc/internal/mutator"
	"bookmarkgc/internal/sim"
	"bookmarkgc/internal/telemetry"
	"bookmarkgc/internal/trace"
	"bookmarkgc/internal/workload"
)

// TraceRef points a job at an allocation-trace file (internal/workload)
// in place of Program's generator. Name and Hash enter the job's
// canonical hash — the cache keys on what the trace contains; Path is
// where this process finds the bytes, which is location, not identity,
// so it stays out of the hash (and out of the persisted cache).
type TraceRef struct {
	Name string `json:"name"`
	Hash string `json:"hash"`
	Path string `json:"-"`
}

// Job is one fully-specified simulation: a pure value, serializable, and
// hashable. Field order is load-bearing — the canonical hash is computed
// over the struct's JSON encoding, so reordering or renaming fields
// invalidates every persisted cache (bump no version; stale entries are
// simply never hit again).
type Job struct {
	Collector sim.CollectorKind `json:"collector"`
	Program   mutator.Spec      `json:"program"`
	HeapBytes uint64            `json:"heap_bytes"`
	PhysBytes uint64            `json:"phys_bytes"`
	Pressure  *sim.Pressure     `json:"pressure,omitempty"`
	Seed      int64             `json:"seed"`
	Chaos     *fault.Config     `json:"chaos,omitempty"`

	// Counters attaches a per-job event-counter registry; its totals ride
	// along in the Result. Counting never advances the simulated clock,
	// but it changes what a Result carries, so it is part of the hash.
	Counters bool `json:"counters,omitempty"`

	// Trace, when non-nil, replays the referenced allocation trace
	// instead of running Program's generator. Program may be left zero
	// (or set for display; it still participates in the hash).
	Trace *TraceRef `json:"trace,omitempty"`

	// Fleet, when non-nil, runs a multi-tenant fleet (sim.RunFleet)
	// described entirely by the spec; the single-run fields above must be
	// left zero (Collector/Program/Heap/Phys live inside the spec). The
	// spec is a pure value, so it hashes with the job. Several identical
	// JVMs on one machine (§5.3.3) are a fleet of identical tenants.
	Fleet *sim.FleetSpec `json:"fleet,omitempty"`

	// HeapPolicy names the run's heap-limit policy (internal/heappolicy;
	// "" = the collector's default). Fleet jobs carry policies inside
	// the spec instead. Appended after Fleet so empty-policy jobs keep
	// their pre-existing hashes.
	HeapPolicy string `json:"heap_policy,omitempty"`
}

// Hash returns the job's canonical content hash: hex SHA-256 of its JSON
// encoding. encoding/json emits struct fields in declaration order and
// formats floats deterministically, so equal jobs hash equally across
// processes and platforms.
func (j Job) Hash() string {
	b, err := json.Marshal(j)
	if err != nil {
		// A Job is plain data; Marshal cannot fail on one. Guard anyway.
		panic(fmt.Sprintf("runner: unhashable job: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Describe is the job in one line, for naming it when it fails:
// collector, workload, heap, machine, JVM count, pressure point, chaos
// and seed. A fleet of identical tenants reads as that many JVMs.
func (j Job) Describe() string {
	mb := func(b uint64) string {
		if b < 1<<20 {
			return fmt.Sprintf("%dKB", b>>10)
		}
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	}
	jvms := 1
	if f := j.Fleet; f != nil {
		differs := func(t sim.TenantSpec) bool { return !reflect.DeepEqual(t, f.Tenants[0]) }
		if len(f.Tenants) < 2 || slices.ContainsFunc(f.Tenants, differs) {
			return fmt.Sprintf("fleet of %d tenants, phys %s, seed %d", len(f.Tenants), mb(f.PhysBytes), f.Seed)
		}
		t := f.Tenants[0]
		jvms = len(f.Tenants)
		j = Job{Collector: t.Collector, Program: t.Program, HeapBytes: t.HeapBytes, PhysBytes: f.PhysBytes,
			Seed: f.Seed, HeapPolicy: cmp.Or(t.HeapPolicy, f.HeapPolicy)}
	}
	var b strings.Builder
	workload := j.Program.Name
	if j.Trace != nil {
		workload = "trace " + j.Trace.Name
	}
	fmt.Fprintf(&b, "%s %s, heap %s, phys %s", j.Collector, workload, mb(j.HeapBytes), mb(j.PhysBytes))
	if jvms > 1 {
		fmt.Fprintf(&b, ", %d JVMs", jvms)
	}
	if p := j.Pressure; p != nil {
		fmt.Fprintf(&b, ", pin %s", mb(p.InitialBytes))
		if p.GrowBytes > 0 {
			fmt.Fprintf(&b, " then %s per %v down to %s available", mb(p.GrowBytes), p.GrowEvery, mb(p.TargetAvailBytes))
		}
	}
	if j.Chaos != nil {
		fmt.Fprintf(&b, ", chaos seed %d", j.Chaos.Seed)
	}
	if j.HeapPolicy != "" {
		fmt.Fprintf(&b, ", heap policy %s", j.HeapPolicy)
	}
	fmt.Fprintf(&b, ", seed %d", j.Seed)
	return b.String()
}

// Host is the other argument of a run: what watches it and what host
// resources it may spend, where the Job is what decides it. None of it
// can move a simulated result (sim.RunConfig and sim.FleetConfig document
// each field as outside a run's identity), so none of it enters Job.Hash
// or the result cache. The zero Host is an unobserved run.
type Host struct {
	// Trace records GC phase spans and VM-cooperation events; each fleet
	// tenant gets its own thread in it.
	Trace *trace.Recorder
	// Counters is the registry the run counts into. When nil, a job that
	// asks for counters (Job.Counters) gets a private one.
	Counters *trace.Counters
	// Telemetry samples and attributes a single-process run.
	Telemetry *telemetry.Collector
	// FlightDir arms per-tenant flight recorders and cascade bundles on a
	// fleet job.
	FlightDir string
}

// Validate rejects configurations the simulator cannot express, before
// any simulation state exists. It holds the run-level rules once, for
// the runner and for every front end that builds Jobs.
func (j Job) Validate() error {
	if j.Trace != nil && j.Trace.Path == "" {
		return fmt.Errorf("runner: trace %q has no resolved path on this machine", j.Trace.Name)
	}
	if j.HeapPolicy != "" && !heappolicy.Known(j.HeapPolicy) {
		return fmt.Errorf("runner: unknown heap policy %q (valid: %v)", j.HeapPolicy, heappolicy.Names())
	}
	if j.Fleet != nil {
		if j.Pressure != nil || j.Chaos != nil || j.Trace != nil {
			return fmt.Errorf("runner: fleet jobs carry their whole configuration in the spec (pressure/chaos/trace must be unset)")
		}
		if j.HeapPolicy != "" {
			return fmt.Errorf("runner: fleet jobs name heap policies inside the spec (heap_policy must be unset)")
		}
		if err := j.Fleet.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// openTrace resolves a job's trace reference, insisting the bytes on
// disk still match the hash the job (and so the result cache) is keyed
// by — a stale or swapped file must not impersonate the trace.
func openTrace(ref *TraceRef) (mutator.Source, error) {
	h, err := workload.HashFile(ref.Path)
	if err != nil {
		return nil, err
	}
	if h != ref.Hash {
		return nil, fmt.Errorf("runner: trace %s at %s has content hash %.12s…, job expects %.12s…",
			ref.Name, ref.Path, h, ref.Hash)
	}
	return workload.Open(ref.Path)
}

// Execute runs one job to completion on the calling goroutine and never
// panics: a panicking simulation (beyond the out-of-memory condition
// sim.Run already converts to a per-run error) becomes a job error, not
// a dead sweep.
func Execute(j Job) *Result { return ExecuteOn(j, Host{}) }

// ExecuteOn is Execute observed by h.
func ExecuteOn(j Job, h Host) *Result {
	return capture(j.Hash(), func() *Result { return execute(j, h) })
}

// capture converts a panic from f into an errored Result for hash.
func capture(hash string, f func() *Result) (res *Result) {
	defer func() {
		if p := recover(); p != nil {
			res = &Result{Hash: hash, Err: fmt.Sprintf("panic: %v", p)}
		}
	}()
	return f()
}

// execute is the only Job → sim adapter: j fills the fields that decide
// the run, h the ones that watch it.
func execute(j Job, h Host) *Result {
	res := &Result{Hash: j.Hash()}
	if err := j.Validate(); err != nil {
		res.Err = err.Error()
		return res
	}
	ctrs := h.Counters
	if ctrs == nil && j.Counters {
		ctrs = trace.NewCounters()
	}
	var src mutator.Source
	if j.Trace != nil {
		s, err := openTrace(j.Trace)
		if err != nil {
			res.Err = err.Error()
			return res
		}
		src = s
	}
	if j.Fleet != nil {
		fr := sim.RunFleet(sim.FleetConfig{
			Spec:      *j.Fleet,
			Trace:     h.Trace,
			Counters:  ctrs,
			FlightDir: h.FlightDir,
		})
		if fr.Err != nil {
			res.Err = fr.Err.Error()
			return res
		}
		for i, r := range fr.Tenants {
			rd := NewRunData(r)
			rd.Name = fr.Names[i]
			res.Runs = append(res.Runs, rd)
		}
		res.Fleet = &fr.FleetStats
	} else {
		r := sim.Run(sim.RunConfig{
			Collector:  j.Collector,
			Program:    j.Program,
			HeapBytes:  j.HeapBytes,
			PhysBytes:  j.PhysBytes,
			Pressure:   j.Pressure,
			Seed:       j.Seed,
			Trace:      h.Trace,
			Counters:   ctrs,
			Chaos:      j.Chaos,
			Workload:   src,
			Telemetry:  h.Telemetry,
			HeapPolicy: j.HeapPolicy,
		})
		res.Runs = append(res.Runs, NewRunData(r))
	}
	if j.Counters {
		res.Counters = countersMap(ctrs)
	}
	return res
}
