package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"bookmarkgc/internal/bench"
	"bookmarkgc/internal/gc"
	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/mutator"
	"bookmarkgc/internal/runner"
	"bookmarkgc/internal/sim"
	"bookmarkgc/internal/trace"
	"bookmarkgc/internal/vmm"
)

// inputs is everything a workload's generator may depend on. The
// program under test never sees the seed itself, only what is generated
// from it here.
type inputs struct {
	seed    int64
	size    float64 // 1 = the benchmark's size; the smoke test shrinks it
	dir     string  // scratch directory for generated files, inside the checkout
	workers int     // host parallelism for sweep (nproc)
}

// simStats are the simulated outcomes of a unit. They are a pure
// function of the generated inputs and must repeat bit for bit.
type simStats struct {
	ElapsedSecs float64
	MajorFaults uint64
	Pauses      uint64
	PauseNS     int64
}

func (s simStats) pauseSecs() float64 { return float64(s.PauseNS) / 1e9 }

// pauseMeanMS is the mean over every pause, 0 when nothing paused.
func (s simStats) pauseMeanMS() float64 {
	if s.Pauses == 0 {
		return 0
	}
	return float64(s.PauseNS) / float64(s.Pauses) / 1e6
}

func (s *simStats) add(o simStats) {
	s.ElapsedSecs += o.ElapsedSecs
	s.MajorFaults += o.MajorFaults
	s.Pauses += o.Pauses
	s.PauseNS += o.PauseNS
}

// outcome is what one execution of a unit reports back.
type outcome struct {
	sim       simStats
	attempted int      // operations: jobs, or tenants in a fleet
	failures  []string // one line per failed operation
	// fingerprint folds every simulated result of the unit (stats,
	// checksums, report bytes); any pass whose fingerprint differs from
	// the first pass's has failed.
	fingerprint string
	// checksums maps "program/seed" to the mutator checksum observed; the
	// pass compares them across units (the differential oracle: the
	// checksum depends on the program and seed, never on the collector).
	checksums map[string]uint64
}

// unit is one separately timed piece of a pass. run does the work that
// is timed and returns the function that, untimed, turns what the
// program produced into an outcome (and clears what the next pass must
// not find). tc is nil on an untraced pass; on a traced pass the unit
// records spans and counts into it.
type unit struct {
	name string
	run  func(tc *traceCtx) func() outcome
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// passSeconds is the nominal host cost of one pass: what it takes on
	// the reference box in a typical (not the fastest) regime when this
	// benchmark was defined. It is a constant, not a measurement: it turns
	// -seconds into a pass count that is fixed before the run starts, so
	// two commits measured with the same flags do identical work (README,
	// "Estimator").
	passSeconds float64
	build       func(in inputs) ([]unit, error)
	// crossCheck, when set, alters the inputs' host-side knobs only; the
	// units built from the result run once after the cold pass and must
	// reproduce its fingerprints.
	crossCheck func(in inputs) inputs
}

var workloads = []workload{
	{name: "nopressure", passSeconds: 0.6, build: buildNoPressure},
	{name: "bc-pressure", passSeconds: 1.1, build: buildBCPressure},
	{name: "sweep", passSeconds: 1.9, build: buildSweep,
		// Report bytes must not depend on the worker count.
		crossCheck: func(in inputs) inputs { in.workers = 1; return in }},
	{name: "fleet", passSeconds: 1.25, build: buildFleet},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Paper-scale geometry of the pseudoJBB experiments (§5.3): a 77 MB
// heap, scaled with the program.
const paperHeapBytes = 77 << 20

func scaledBytes(paperBytes, scale float64) uint64 {
	return mem.RoundUpPage(uint64(paperBytes * scale))
}

// jobOutcome folds one finished single-JVM run into a unit outcome.
func jobOutcome(name string, r sim.Result) outcome {
	st := simStats{
		ElapsedSecs: r.ElapsedSecs,
		MajorFaults: r.ProcStats.MajorFaults,
		Pauses:      uint64(len(r.Timeline.Pauses)),
		PauseNS:     int64(r.Timeline.TotalPause()),
	}
	o := outcome{
		sim:       st,
		attempted: 1,
		fingerprint: fmt.Sprintf("%v %+v gcs=%d/%d/%d/%d bm=%d/%d sum=%x alloc=%d", st, r.ProcStats,
			r.GCStats.Nursery, r.GCStats.Full, r.GCStats.Compactions, r.GCStats.FailSafe,
			r.GCStats.Bookmarked, r.GCStats.PagesEvicted, r.Mutator.Checksum, r.Mutator.AllocatedBytes),
		checksums: map[string]uint64{
			fmt.Sprintf("%s/%d", r.Config.Program.Name, r.Config.Seed): r.Mutator.Checksum,
		},
	}
	if r.Err != nil {
		o.failures = append(o.failures, fmt.Sprintf("%s: %v", name, r.Err))
	}
	return o
}

// jobUnit wraps one single-JVM configuration as a unit.
func jobUnit(name string, cfg sim.RunConfig) unit {
	return unit{name: name, run: func(tc *traceCtx) func() outcome {
		if tc == nil {
			r := sim.Run(cfg)
			return func() outcome { return jobOutcome(name, r) }
		}
		r, check := runTraced(cfg, tc)
		return func() outcome {
			o := jobOutcome(name, r)
			if err := check(); err != nil {
				o.failures = append(o.failures, fmt.Sprintf("%s: %v", name, err))
			}
			tc.addRun(r.ProcStats, r.GCStats)
			tc.add("mutator.allocs", float64(r.Mutator.Allocations))
			return o
		}
	}}
}

// noPressureScale sizes pseudoJBB so a collector's job costs 0.07–0.14 s
// of host time: short enough that a run holds some thirty samples of
// each, which is what the minimum needs (README, "Noise"), and the
// noise does not shrink with the job (a 0.4 MB heap is disturbed as much
// as a 3 MB one), so nothing is gained by going smaller.
const noPressureScale = 0.04

// buildNoPressure: six collectors × pseudoJBB with four heaps' worth of
// physical memory, so nothing is ever evicted.
func buildNoPressure(in inputs) ([]unit, error) {
	scale := noPressureScale * in.size
	prog := mutator.PseudoJBB().Scale(scale)
	heap := scaledBytes(paperHeapBytes, scale)
	var units []unit
	for _, k := range sim.AllKinds {
		units = append(units, jobUnit(string(k), sim.RunConfig{
			Collector: k, Program: prog,
			HeapBytes: heap, PhysBytes: heap * 4,
			Seed: in.seed, MarkWorkers: 1,
		}))
	}
	return units, nil
}

// bcPressureScale is the smallest scale at which none of 1500 scanned
// jobs (seeds 1–100, every pressure point of fig4 for BC and
// BCResizeOnly) failed; at 0.02 the bookmarking collector under the
// hardest dynamic pressure panics or runs out of memory on 4% of seeds.
const bcPressureScale = 0.03

// bcPressureSeeds is how many program seeds, all derived from the
// benchmark seed, a bc-pressure pass runs every configuration on. Under
// pressure the amount of work itself depends on the seed (across seeds
// the resize-only job alone varies by ±28% in host time), so one seed
// per pass would make the workload's host time a property of the seed
// more than of the code.
const bcPressureSeeds = 2

// buildBCPressure: the bookmarking collector under the paper's two
// pressure schedules, plus its resize-only variant for contrast.
func buildBCPressure(in inputs) ([]unit, error) {
	scale := bcPressureScale * in.size
	prog := mutator.PseudoJBB().Scale(scale)
	heap := scaledBytes(paperHeapBytes, scale)
	dynPhys := heap * 2
	var units []unit
	for k := int64(0); k < bcPressureSeeds; k++ {
		base := sim.RunConfig{Program: prog, HeapBytes: heap, Seed: in.seed*bcPressureSeeds + k, MarkWorkers: 1}

		// The dynamic schedule is calibrated as the experiments harness
		// does it (bench fig4/fig5): an unpressured BC run gives the length
		// the signalmem ramp is fitted to. That run is input generation.
		cal := base
		cal.Collector, cal.PhysBytes = sim.BC, heap*4
		calRes := sim.Run(cal)
		if calRes.Err != nil {
			return nil, fmt.Errorf("calibration run: %w", calRes.Err)
		}
		baseline := time.Duration(calRes.ElapsedSecs * float64(time.Second))
		dynamic := func() *sim.Pressure {
			return sim.CalibratedDynamicPressure(dynPhys, scaledBytes(60<<20, scale),
				scaledBytes(30<<20, scale), scaledBytes(1<<20, scale), baseline)
		}

		steady := base
		steady.Collector, steady.PhysBytes = sim.BC, scaledBytes(100<<20, scale)
		steady.Pressure = sim.SteadyPressure(heap, 0.6)
		dyn := base
		dyn.Collector, dyn.PhysBytes, dyn.Pressure = sim.BC, dynPhys, dynamic()
		resize := base
		resize.Collector, resize.PhysBytes, resize.Pressure = sim.BCResizeOnly, dynPhys, dynamic()
		units = append(units,
			jobUnit(fmt.Sprintf("BC-steady.%d", k), steady),
			jobUnit(fmt.Sprintf("BC-dynamic.%d", k), dyn),
			jobUnit(fmt.Sprintf("BCResizeOnly-dynamic.%d", k), resize))
	}
	return units, nil
}

// sweepScale: see bcPressureScale; fig4 contains the job that fails at
// 0.02.
const sweepScale = 0.03

// sweepExperiments are the bench experiments one sweep pass regenerates.
var sweepExperiments = []string{"fig4", "replay"}

// buildSweep: figure regeneration through the parallel runner and its
// JSONL store, a fresh runner and cache per unit.
func buildSweep(in inputs) ([]unit, error) {
	opts := bench.Options{Scale: sweepScale * in.size, Seed: in.seed}
	var units []unit
	for _, id := range sweepExperiments {
		exp, ok := bench.ByID(id)
		if !ok {
			return nil, fmt.Errorf("bench experiment %q is gone", id)
		}
		dir := filepath.Join(in.dir, "sweep-"+id)
		units = append(units, unit{name: id, run: func(tc *traceCtx) func() outcome {
			return runSweepUnit(exp, opts, in.workers, dir, tc)
		}})
	}
	return units, nil
}

// runSweepUnit regenerates one experiment through a fresh runner over
// a fresh store in dir (OpenCache truncates it).
func runSweepUnit(exp bench.Experiment, opts bench.Options, workers int, dir string, tc *traceCtx) func() outcome {
	cache, err := runner.OpenCache(dir, false)
	if err != nil {
		return func() outcome {
			return outcome{attempted: 1, failures: []string{fmt.Sprintf("%s: %v", exp.ID, err)}}
		}
	}
	rn := runner.New(runner.Options{Workers: workers, Cache: cache})
	reports := exp.Run(opts, rn)
	closeErr := cache.Close()

	// Untimed from here: the unit's simulated totals come from the store
	// the runner just wrote, the only public place a sweep leaves them.
	return func() outcome {
		var o outcome
		if closeErr != nil {
			o.failures = append(o.failures, fmt.Sprintf("%s: closing store: %v", exp.ID, closeErr))
		}
		var text bytes.Buffer
		for i := range reports {
			reports[i].Print(&text)
		}
		stats := rn.Stats()
		results, err := readStore(cache.Path())
		if err != nil {
			o.failures = append(o.failures, fmt.Sprintf("%s: %v", exp.ID, err))
		}
		o.attempted = stats.Executed
		var longest int64
		for _, res := range results {
			if res.WallNS > longest {
				longest = res.WallNS
			}
			for _, rd := range res.Runs {
				if rd.Err != "" {
					o.failures = append(o.failures, fmt.Sprintf("%s: job %.12s: %s", exp.ID, res.Hash, rd.Err))
				}
				o.sim.ElapsedSecs += rd.ElapsedSecs
				o.sim.MajorFaults += rd.Proc.MajorFaults
				o.sim.Pauses += uint64(len(rd.Pauses))
				for _, p := range rd.Pauses {
					o.sim.PauseNS += p.DurNS
				}
				if tc != nil {
					tc.addRun(rd.Proc, gc.Stats{Nursery: rd.Nursery, Full: rd.Full, Compactions: rd.Compactions,
						FailSafe: rd.FailSafe, Bookmarked: rd.Bookmarked, PagesEvicted: rd.PagesEvicted})
				}
			}
		}
		// Engine-level failures (panic, bad configuration) are never stored.
		for i := 0; i < stats.Errors; i++ {
			o.failures = append(o.failures, fmt.Sprintf("%s: engine error (not stored)", exp.ID))
		}
		if stats.Executed != len(results)+stats.Errors {
			o.failures = append(o.failures, fmt.Sprintf("%s: %d jobs executed, %d stored",
				exp.ID, stats.Executed, len(results)))
		}
		o.fingerprint = fmt.Sprintf("%v %x", o.sim, sha256.Sum256(text.Bytes()))
		if tc != nil {
			tc.add("runner.jobs_executed", float64(stats.Executed))
			tc.add("runner.memo_hits", float64(stats.MemHits))
			tc.longestJobNS[exp.ID] = longest
		}
		return o
	}
}

// readStore parses a runner JSONL store, ordered by job hash so sums
// over it do not depend on which worker finished first.
func readStore(path string) ([]runner.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runner.Result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		var res runner.Result
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			return nil, fmt.Errorf("store %s: %w", path, err)
		}
		out = append(out, res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Hash < out[j].Hash })
	return out, nil
}

const fleetScale = 0.05

// buildFleet: two shared-machine runs through the fleet engine.
func buildFleet(in inputs) ([]unit, error) {
	scale := fleetScale * in.size
	// The chaos seed is derived, not reused, so fault schedules and
	// program streams are independent draws from the one benchmark seed.
	chaosSeed := in.seed*7919 + 17

	coop := sim.DefaultFleetSpec(8, scale, in.seed, chaosSeed)
	coop.Policy = sim.PolicyCooperative
	coop.HeapPolicy = "membalancer"
	coop.BalanceEveryNS = int64(5 * time.Millisecond)
	flightDir := filepath.Join(in.dir, "fleet-flight")

	lru := sim.DefaultFleetSpec(16, scale, in.seed, chaosSeed)
	lru.Policy = sim.PolicyGlobalLRU

	for _, s := range []*sim.FleetSpec{&coop, &lru} {
		if err := s.Validate(); err != nil {
			return nil, err
		}
	}
	// Every pass must find the flight directory empty: bundle file names
	// are numbered from what is already there.
	resetFlightDir := func() error {
		if err := os.RemoveAll(flightDir); err != nil {
			return err
		}
		return os.MkdirAll(flightDir, 0o755)
	}
	if err := resetFlightDir(); err != nil {
		return nil, err
	}
	return []unit{
		{name: "fleet8-coop-bal", run: func(tc *traceCtx) func() outcome {
			finish := runFleetUnit("fleet8-coop-bal", sim.FleetConfig{Spec: coop, FlightDir: flightDir, MarkWorkers: 2}, tc)
			return func() outcome {
				o := finish()
				if err := resetFlightDir(); err != nil {
					o.failures = append(o.failures, err.Error())
				}
				return o
			}
		}},
		{name: "fleet16-lru", run: func(tc *traceCtx) func() outcome {
			return runFleetUnit("fleet16-lru", sim.FleetConfig{Spec: lru, MarkWorkers: 2}, tc)
		}},
	}, nil
}

func runFleetUnit(name string, cfg sim.FleetConfig, tc *traceCtx) func() outcome {
	var accounting []string
	if tc != nil {
		cfg.Counters = trace.NewCounters()
		cfg.AfterCollection = func(tenant int, _ gc.Collector, v *vmm.VMM) {
			if err := v.CheckAccounting(); err != nil && len(accounting) < 4 {
				accounting = append(accounting, fmt.Sprintf("%s: tenant %d: %v", name, tenant, err))
			}
		}
	}
	fr := sim.RunFleet(cfg)
	return func() outcome {
		o := outcome{attempted: len(cfg.Spec.Tenants), failures: accounting}
		if fr.Err != nil {
			o.failures = append(o.failures, fmt.Sprintf("%s: tenant %d: %v", name, fr.ErrTenant, fr.Err))
			return o
		}
		var fp bytes.Buffer
		for i, t := range fr.Tenants {
			jo := jobOutcome(fr.Names[i], t)
			o.sim.add(jo.sim)
			o.failures = append(o.failures, jo.failures...)
			fmt.Fprintln(&fp, jo.fingerprint)
		}
		fmt.Fprintf(&fp, "%d %d %v %+v", fr.Cascades, fr.BalancerRounds, fr.Policy, fr.VMM)
		o.fingerprint = fmt.Sprintf("%x", sha256.Sum256(fp.Bytes()))
		if tc != nil {
			tc.addFleet(cfg, fr)
		}
		return o
	}
}
