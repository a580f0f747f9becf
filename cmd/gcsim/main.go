// Command gcsim runs one benchmark program under one collector on the
// simulated machine and prints its measurements — the building block the
// experiment harness sweeps.
//
// Usage:
//
//	gcsim [-collector BC] [-program pseudojbb] [-heap 77] [-phys 256]
//	      [-avail 0] [-steal 0] [-scale 0.25] [-seed 1] [-jvms 1] [-bmu]
//	      [-runs 1] [-jobs n] [-mark-workers n] [-chaos regime] [-chaos-seed 1]
//	      [-trace out.json] [-trace-format chrome|jsonl] [-counters]
//	      [-http :8080] [-telemetry-out series.csv] [-sample-every 1ms]
//	      [-flight-dump-dir dir]
//
// -steal f   pins f*heap immediately (steady pressure, Figure 3)
// -avail mb  dynamic pressure down to mb megabytes available (Figure 4/5)
// -jvms n    runs n instances round-robin on one machine (Figure 7)
// -runs n    sweeps n consecutive seeds (-seed, -seed+1, ...) on the
//
//	parallel runner and prints per-seed summaries + aggregates
//
// -jobs n    concurrent simulations for -runs (default GOMAXPROCS)
// -mark-workers n  host threads for the parallel mark engine (default 1:
//
//	marking is a few percent of host time and two workers have
//	not been faster than one); results are bit-identical for
//	any value
//
// -cpuprofile f, -memprofile f  write host pprof profiles of the whole
//
//	command (written on every exit, failures included)
//
// -chaos r   injects kernel faults into the cooperation protocol
//
//	(drop, delay, duplicate, reorder, no-notify, reload-storm,
//	thrash); -chaos-seed drives the injector's PRNG
//
// -heap-policy p  heap-limit policy for the collector's budget (fixed,
//
//	bc-shrink, membalancer, composed); "" keeps each collector's
//	native behaviour. With -fleet it overrides the spec's policy
//	for every tenant.
//
// -fleet s   runs a multi-tenant fleet sharing one machine: s is a
//
//	tenant-spec JSON file, or mixedN for the stock N-tenant mixed
//	fleet (BC alternating with non-cooperating collectors, two
//	noisy neighbors). Reuses -phys/-scale/-seed/-chaos-seed/
//	-flight-dump-dir/-mark-workers; -fleet-policy picks the
//	eviction-arbitration policy (global-lru, proportional,
//	cooperative). The report is byte-identical for any
//	-mark-workers value.
//
// -trace f   writes GC phase spans and VM-cooperation events to f
// -counters  prints the event-counter registry after the run
//
// Telemetry (DESIGN.md §12) — any of these flags arms the deterministic
// sampler, per-pause phase attribution, and the flight recorder:
//
// -http addr          serves /metrics, the dashboard, /api/* and
//
//	/debug/pprof/ during the run and blocks after it so the
//	final state stays scrapeable
//
// -telemetry-out f    writes the sampled time series after the run
//
//	(.jsonl gets samples+pauses+digests; anything else CSV)
//
// -sample-every d     sampling interval in simulated time (default 1ms)
// -flight-dump-dir d  writes flight-recorder bundles (anomaly dumps) here
// -list      prints the simulator's inventory (programs, collectors, mark
//
//	counters, chaos regimes, synthesizer models, *.gctrace files)
//	and exits
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"bookmarkgc/internal/fault"
	"bookmarkgc/internal/gc"
	"bookmarkgc/internal/heappolicy"
	"bookmarkgc/internal/hostprof"
	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/metrics"
	"bookmarkgc/internal/mutator"
	"bookmarkgc/internal/runner"
	"bookmarkgc/internal/sim"
	"bookmarkgc/internal/telemetry"
	"bookmarkgc/internal/trace"
	"bookmarkgc/internal/vmm"
	"bookmarkgc/internal/workload"
)

// prof holds -cpuprofile and -memprofile; every exit goes through it.
var prof = hostprof.Register()

func main() {
	var (
		collector = flag.String("collector", "BC", "collector kind (BC, BCResizeOnly, GenMS, GenCopy, CopyMS, MarkSweep, SemiSpace, GenMSFixed, GenCopyFixed)")
		program   = flag.String("program", "pseudojbb", "benchmark program (see Table 1)")
		heapMB    = flag.Float64("heap", 77, "heap size in MB (paper scale)")
		physMB    = flag.Float64("phys", 256, "physical memory in MB (paper scale)")
		stealFrac = flag.Float64("steal", 0, "steady pressure: immediately pin this fraction of the heap")
		availMB   = flag.Float64("avail", 0, "dynamic pressure: signalmem target available MB (0 = off)")
		scale     = flag.Float64("scale", 0.25, "scale factor applied to all byte quantities")
		seed      = flag.Int64("seed", 1, "workload seed")
		jvms      = flag.Int("jvms", 1, "number of simultaneous JVM instances")
		runs      = flag.Int("runs", 1, "sweep this many consecutive seeds and print aggregates")
		jobs      = flag.Int("jobs", runtime.GOMAXPROCS(0), "maximum concurrent simulations for -runs")
		markWkrs  = flag.Int("mark-workers", 1, "host threads for the parallel mark engine (results are bit-identical for any value)")
		bmu       = flag.Bool("bmu", false, "print the BMU curve")
		chaos     = flag.String("chaos", "", "inject kernel faults: drop, delay, duplicate, reorder, no-notify, reload-storm, thrash")
		chaosSeed = flag.Int64("chaos-seed", 1, "seed for the fault injector's PRNG")
		heapPol   = flag.String("heap-policy", "", "heap-limit policy: fixed, bc-shrink, membalancer, composed ('' = collector default; with -fleet, overrides the spec)")
		fleetArg  = flag.String("fleet", "", "run a multi-tenant fleet: a tenant-spec JSON file, or mixedN for the stock N-tenant mixed fleet")
		fleetPol  = flag.String("fleet-policy", "", "fleet eviction-arbitration policy: global-lru, proportional, cooperative (overrides the spec)")
		traceOut  = flag.String("trace", "", "write a GC event trace to this file")
		traceFmt  = flag.String("trace-format", "chrome", "trace file format: chrome (Perfetto-loadable) or jsonl")
		counters  = flag.Bool("counters", false, "print the event-counter registry after the run")
		list      = flag.Bool("list", false, "list programs, collectors, chaos regimes, trace models and files, then exit")

		httpAddr    = flag.String("http", "", "serve /metrics, the dashboard and /debug/pprof on this address (e.g. :8080)")
		telemOut    = flag.String("telemetry-out", "", "write the telemetry time series to this file (.jsonl or CSV)")
		sampleEvery = flag.Duration("sample-every", time.Millisecond, "telemetry sampling interval in simulated time")
		flightDir   = flag.String("flight-dump-dir", "", "write flight-recorder bundles (anomaly dumps) to this directory")
	)
	flag.Parse()
	if err := prof.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "gcsim: %v\n", err)
		prof.Exit(1)
	}
	defer prof.Stop()

	// -sample-every alone also arms telemetry, but only when explicitly
	// given: the default value must not silently turn the sampler on.
	sampleEverySet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "sample-every" {
			sampleEverySet = true
		}
	})
	telemetryOn := *httpAddr != "" || *telemOut != "" || *flightDir != "" || sampleEverySet

	if *list {
		listInventory()
		return
	}

	// Reject contradictory or out-of-range configurations up front, before
	// any simulation state exists; exit 2 like other flag errors.
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "gcsim: "+format+"\n", args...)
		flag.Usage()
		prof.Exit(2)
	}
	if *stealFrac > 0 && *availMB > 0 {
		fail("-steal and -avail are mutually exclusive pressure schedules; pick one")
	}
	if *stealFrac < 0 || *stealFrac >= 1 {
		fail("-steal %v out of range [0, 1)", *stealFrac)
	}
	if *availMB < 0 {
		fail("-avail %v must be non-negative", *availMB)
	}
	if *jvms < 1 {
		fail("-jvms %d must be at least 1", *jvms)
	}
	if *runs < 1 {
		fail("-runs %d must be at least 1", *runs)
	}
	if *markWkrs < 1 {
		fail("-mark-workers %d must be at least 1", *markWkrs)
	}
	if *sampleEvery <= 0 {
		fail("-sample-every %v must be positive", *sampleEvery)
	}
	if telemetryOn && (*runs > 1 || *jvms > 1) {
		fail("telemetry instruments exactly one simulation; drop -runs/-jvms or the telemetry flags")
	}
	if *runs > 1 {
		if *bmu || *traceOut != "" || *counters {
			fail("-runs is a summary sweep; -bmu, -trace and -counters need a single run")
		}
		if *jvms > 1 && (*stealFrac > 0 || *availMB > 0) {
			fail("pressure schedules are single-JVM; drop -jvms or the pressure flag")
		}
	}
	if *scale <= 0 {
		fail("-scale %v must be positive", *scale)
	}
	if *heapMB <= 0 || *physMB <= 0 {
		fail("-heap and -phys must be positive (got %v, %v)", *heapMB, *physMB)
	}
	if *traceFmt != "chrome" && *traceFmt != "jsonl" {
		fail("-trace-format %q must be chrome or jsonl", *traceFmt)
	}
	if *heapPol != "" && !heappolicy.Known(*heapPol) {
		fail("unknown -heap-policy %q (policies: %s)", *heapPol, strings.Join(heappolicy.Names(), ", "))
	}
	var chaosCfg *fault.Config
	if *chaos != "" {
		cfg, ok := fault.ByName(*chaos, *chaosSeed)
		if !ok {
			fail("unknown -chaos regime %q (regimes: %s)", *chaos, strings.Join(fault.Regimes(), ", "))
		}
		if *jvms > 1 {
			fail("-chaos is single-JVM only; drop -jvms")
		}
		chaosCfg = &cfg
	}

	// The seed-sweep runner's jobs build their own environments, so the
	// worker count travels as the process default; the direct sim.Run /
	// RunMulti calls below also pass it explicitly. Simulation output is
	// bit-identical for any value (DESIGN.md §11).
	gc.SetDefaultMarkWorkers(*markWkrs)

	if *fleetPol != "" && *fleetArg == "" {
		fail("-fleet-policy needs -fleet")
	}
	if *fleetArg != "" {
		// A fleet run carries its whole configuration in the spec;
		// single-run flags conflict. -phys/-seed/-chaos-seed override the
		// spec when explicitly given; -flight-dump-dir arms the per-tenant
		// flight recorders and the cascade bundles.
		if *jvms > 1 || *runs > 1 || *chaos != "" || *bmu || *traceOut != "" ||
			*stealFrac > 0 || *availMB > 0 || *counters ||
			*httpAddr != "" || *telemOut != "" || sampleEverySet {
			fail("-fleet runs carry their configuration in the spec; drop the single-run flags")
		}
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		runFleetCLI(*fleetArg, fleetOpts{
			policy:     *fleetPol,
			heapPolicy: *heapPol,
			scale:      *scale,
			seed:       *seed,
			chaosSeed:  *chaosSeed,
			physMB:     *physMB,
			physSet:    set["phys"],
			seedSet:    set["seed"],
			chaosSet:   set["chaos-seed"],
			flightDir:  *flightDir,
			markWkrs:   *markWkrs,
		})
		return
	}

	prog, ok := mutator.ByName(*program)
	if !ok {
		fail("unknown program %q", *program)
	}
	prog = prog.Scale(*scale)
	heap := mem.RoundUpPage(uint64(*heapMB * *scale * (1 << 20)))
	phys := mem.RoundUpPage(uint64(*physMB * *scale * (1 << 20)))
	if phys < vmm.MinPhysBytes {
		fail("-phys %v at -scale %v is a %d-byte machine; the smallest simulable machine is %d bytes",
			*physMB, *scale, phys, vmm.MinPhysBytes)
	}

	if *runs > 1 {
		seedSweep(sweepConfig{
			collector: sim.CollectorKind(*collector),
			prog:      prog, heap: heap, phys: phys,
			stealFrac: *stealFrac, availMB: *availMB, scale: *scale,
			seed: *seed, runs: *runs, jobs: *jobs, jvms: *jvms,
			chaos: chaosCfg, heapPolicy: *heapPol,
		})
		return
	}

	var pressure *sim.Pressure
	switch {
	case *stealFrac > 0:
		pressure = sim.SteadyPressure(heap, *stealFrac)
	case *availMB > 0:
		// Calibrate the signalmem ramp to this workload: an unpressured
		// run sets the baseline the ramp completes a third of the way
		// into, as in the paper's measured iterations.
		base := sim.Run(sim.RunConfig{
			Collector: sim.CollectorKind(*collector),
			Program:   prog, HeapBytes: heap, PhysBytes: phys,
			Seed: *seed, MarkWorkers: *markWkrs,
		})
		checkErr(base.Err)
		avail := mem.RoundUpPage(uint64(*availMB * *scale * (1 << 20)))
		initial := mem.RoundUpPage(uint64(30 * *scale * (1 << 20)))
		grow := mem.RoundUpPage(uint64(*scale * (1 << 20)))
		pressure = sim.CalibratedDynamicPressure(phys, avail, initial, grow,
			time.Duration(base.ElapsedSecs*float64(time.Second)))
	}

	// The recorder's clock is bound by sim.Run/RunMulti once the simulated
	// machine exists.
	var rec *trace.Recorder
	if *traceOut != "" {
		rec = trace.NewRecorder(nil, *collector)
	}
	var reg *trace.Counters
	if *counters || *traceOut != "" || telemetryOn {
		// Telemetry needs the registry too: the flight recorder's
		// chaos-escalation trigger watches fail-safe/backoff counters, and
		// /metrics exports the telemetry self-counters.
		reg = trace.NewCounters()
	}

	// The telemetry collector samples on the simulated clock and observes
	// only bookkeeping, so the instrumented run is bit-identical to an
	// uninstrumented one (DESIGN.md §12). The HTTP server starts before
	// the run so the dashboard is live while it executes.
	var tel *telemetry.Collector
	if telemetryOn {
		tel = telemetry.New(telemetry.Config{
			SampleEvery: *sampleEvery,
			FlightDir:   *flightDir,
		})
		if *httpAddr != "" {
			ln, err := net.Listen("tcp", *httpAddr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "gcsim: -http: %v\n", err)
				prof.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "gcsim: serving telemetry on http://%s/\n", ln.Addr())
			go func() {
				srv := &http.Server{Handler: telemetry.NewMux(telemetry.ServerOptions{
					Telemetry: tel,
					Title:     fmt.Sprintf("gcsim %s/%s", *collector, *program),
				})}
				if err := srv.Serve(ln); err != nil {
					fmt.Fprintf(os.Stderr, "gcsim: http server: %v\n", err)
					prof.Exit(1)
				}
			}()
		}
	}

	if *jvms > 1 {
		results := sim.RunMulti(sim.MultiConfig{
			Collector: sim.CollectorKind(*collector),
			Program:   prog, HeapBytes: heap, PhysBytes: phys,
			JVMs: *jvms, Seed: *seed, MarkWorkers: *markWkrs,
			Trace: rec, Counters: reg,
			HeapPolicy: *heapPol,
		})
		for i, r := range results {
			if r.Err != nil {
				fmt.Printf("jvm%d: FAILED: %v\n", i, r.Err)
				continue
			}
			fmt.Printf("jvm%d: %s\n", i, summary(r))
		}
		finish(rec, reg, *traceOut, *traceFmt, *counters)
		return
	}

	r := sim.Run(sim.RunConfig{
		Collector: sim.CollectorKind(*collector),
		Program:   prog, HeapBytes: heap, PhysBytes: phys,
		Pressure: pressure, Seed: *seed, Chaos: chaosCfg,
		MarkWorkers: *markWkrs,
		Trace:       rec, Counters: reg,
		Telemetry:  tel,
		HeapPolicy: *heapPol,
	})
	if tel != nil && r.Err != nil {
		// Report the telemetry captured up to the failure (the flight
		// recorder has already dumped an "oom" bundle if armed), then exit
		// through the usual path.
		telemetryReport(tel, &r.Timeline)
		writeTelemetry(tel, *telemOut)
	}
	checkErr(r.Err)
	fmt.Println(summary(r))
	if r.Faults != nil {
		fmt.Printf("chaos(%s, seed %d): %s\n", *chaos, *chaosSeed, r.Faults)
	}
	if *bmu {
		total := r.Timeline.Elapsed()
		fmt.Println("BMU curve (window -> utilization):")
		for _, pt := range r.Timeline.BMUCurve(total/1000, total, 12) {
			fmt.Printf("  %8.4fs  %.3f\n", pt[0], pt[1])
		}
	}
	if tel != nil {
		telemetryReport(tel, &r.Timeline)
		writeTelemetry(tel, *telemOut)
	}
	finish(rec, reg, *traceOut, *traceFmt, *counters)
	if *httpAddr != "" {
		fmt.Fprintln(os.Stderr, "gcsim: run complete; still serving (interrupt to exit)")
		select {}
	}
}

// telemetryReport prints the sampler's summary and the per-kind pause
// attribution: percentiles from the log-bucketed digests, and each
// kind's pause time split into phase self-time plus the simulated cost
// of the major faults taken inside the pause (the paper's disk stalls).
func telemetryReport(tel *telemetry.Collector, tl *metrics.Timeline) {
	fmt.Printf("telemetry: %d samples, %d pauses, %d flight dumps\n",
		tel.SampleCount(), len(tel.Pauses()), tel.FlightDumps())
	all := tel.DigestAll()
	if all.Count() > 0 {
		fmt.Printf("pause latency: p50=%v p95=%v p99=%v p99.9=%v max=%v\n",
			round(all.QuantileDuration(0.50)), round(all.QuantileDuration(0.95)),
			round(all.QuantileDuration(0.99)), round(all.QuantileDuration(0.999)),
			round(time.Duration(all.Max())))
	}
	pauses := tel.Pauses()
	for _, kind := range []metrics.PauseKind{metrics.PauseNursery, metrics.PauseFull, metrics.PauseCompact} {
		var (
			n      int
			total  time.Duration
			stall  time.Duration
			other  time.Duration
			phases [trace.NumPhases]time.Duration
			faults uint64
		)
		for i := range pauses {
			p := &pauses[i]
			if p.Kind != kind {
				continue
			}
			n++
			total += p.Dur
			stall += p.FaultStall
			other += p.Other()
			faults += p.MajorFaults
			for ph := 0; ph < trace.NumPhases; ph++ {
				phases[ph] += p.PhaseNS[ph]
			}
		}
		if n == 0 {
			continue
		}
		fmt.Printf("  %-8s n=%d total=%v p50=%v p99=%v:", kind, n,
			round(total), round(tl.PercentileKind(kind, 50)), round(tl.PercentileKind(kind, 99)))
		for ph := trace.Phase(0); int(ph) < trace.NumPhases; ph++ {
			switch ph {
			case trace.PhasePauseNursery, trace.PhasePauseFull, trace.PhasePauseCompact:
				continue // the pause span's self-time is "other" below
			}
			if phases[ph] > 0 {
				fmt.Printf(" %s=%v", ph, round(phases[ph]))
			}
		}
		fmt.Printf(" other=%v", round(other))
		if faults > 0 {
			fmt.Printf(" fault-stall=%v (majflt=%d)", round(stall), faults)
		}
		fmt.Println()
	}
}

// writeTelemetry exports the sampled series: .jsonl gets the full
// samples+pauses+digests stream, anything else the columnar CSV.
func writeTelemetry(tel *telemetry.Collector, path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gcsim: %v\n", err)
		prof.Exit(1)
	}
	w := bufio.NewWriter(f)
	if strings.HasSuffix(path, ".jsonl") {
		err = tel.WriteJSONL(w)
	} else {
		err = tel.WriteCSV(w)
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "gcsim: writing telemetry: %v\n", err)
		prof.Exit(1)
	}
	fmt.Printf("telemetry: %d samples -> %s\n", tel.SampleCount(), path)
}

// listInventory prints everything the simulator can run: the benchmark
// programs (Table 1), the collector kinds, the counter groups (parallel
// mark, telemetry, heap policy, eviction-notice outcomes), the chaos
// regimes, the trace synthesizer models, and any recorded traces in the
// current directory.
func listInventory() {
	fmt.Println("programs (-program; sizes at paper scale 1.0):")
	for _, p := range mutator.Programs {
		fmt.Printf("  %-10s  alloc=%4dMB minHeap=%3dMB\n",
			p.Name, p.TotalAlloc>>20, p.MinHeap>>20)
	}
	fmt.Println("collectors (-collector):")
	for _, k := range sim.KnownKinds {
		fmt.Printf("  %s\n", k)
	}
	fmt.Println("parallel mark counters (-counters; engine in DESIGN.md §11):")
	for _, c := range trace.MarkCounters() {
		fmt.Printf("  %s\n", c)
	}
	fmt.Println("telemetry counters (-counters; layer in DESIGN.md §12):")
	for _, c := range trace.TelemetryCounters() {
		fmt.Printf("  %s\n", c)
	}
	fmt.Println("heap-policy counters (-counters; subsystem in DESIGN.md §14):")
	for _, c := range trace.HeapPolicyCounters() {
		fmt.Printf("  %s\n", c)
	}
	fmt.Println("eviction-notice outcome counters (-counters; they sum to the notices BC fielded, DESIGN.md §5):")
	for _, c := range trace.NoticeCounters() {
		fmt.Printf("  %s\n", c)
	}
	fmt.Printf("heap-limit policies (-heap-policy): %s\n", strings.Join(heappolicy.Names(), ", "))
	fmt.Printf("chaos regimes (-chaos): %s\n", strings.Join(fault.Regimes(), ", "))
	fmt.Printf("trace synthesizer models (gctrace gen -model): %s\n",
		strings.Join(workload.Models, ", "))

	paths, _ := filepath.Glob("*.gctrace")
	if len(paths) == 0 {
		fmt.Println("trace files (*.gctrace in .): none")
		return
	}
	fmt.Println("trace files (*.gctrace in .):")
	for _, p := range paths {
		meta, err := workload.ReadMeta(p)
		if err != nil {
			fmt.Printf("  %-24s  unreadable: %v\n", p, err)
			continue
		}
		fmt.Printf("  %-24s  name=%s source=%s seed=%d collector=%s\n",
			p, meta.Name, meta.Source, meta.Seed, meta.Collector)
	}
}

// checkErr reports a failed run: impossible configurations (live data
// over the heap budget) exit 1 with a hint; anything else exits 2.
func checkErr(err error) {
	if err == nil {
		return
	}
	var oom gc.ErrOutOfMemory
	if errors.As(err, &oom) {
		fmt.Fprintf(os.Stderr, "gcsim: %v\ngcsim: the workload's live data does not fit this heap — raise -heap or -scale\n", oom)
		prof.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "gcsim: %v\n", err)
	prof.Exit(2)
}

// finish exports the trace file and prints the counter registry.
func finish(rec *trace.Recorder, reg *trace.Counters, path, format string, show bool) {
	if rec != nil && path != "" {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gcsim: %v\n", err)
			prof.Exit(1)
		}
		w := bufio.NewWriter(f)
		var werr error
		switch format {
		case "chrome":
			werr = rec.WriteChrome(w, "gcsim")
		case "jsonl":
			werr = rec.WriteJSONL(w)
			if werr == nil {
				werr = reg.WriteJSONL(w)
			}
		}
		if werr == nil {
			werr = w.Flush()
		}
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(os.Stderr, "gcsim: writing trace: %v\n", werr)
			prof.Exit(1)
		}
		fmt.Printf("trace: %d events -> %s (%s)\n", rec.Len(), path, format)
	}
	if show && reg != nil {
		fmt.Println("counters:")
		reg.WriteText(os.Stdout)
	}
}

// sweepConfig parameterizes a -runs multi-seed sweep.
type sweepConfig struct {
	collector  sim.CollectorKind
	prog       mutator.Spec
	heap, phys uint64
	stealFrac  float64
	availMB    float64
	scale      float64
	seed       int64
	runs       int
	jobs       int
	jvms       int
	chaos      *fault.Config
	heapPolicy string
}

// seedSweep runs the configured simulation at runs consecutive seeds on
// the parallel runner, printing one summary line per seed (per JVM for
// multi-JVM machines) and aggregate statistics over the successful runs.
// Dynamic pressure is recalibrated per seed: each seed's unpressured
// baseline run is itself a job in the first batch.
func seedSweep(c sweepConfig) {
	rn := runner.New(runner.Options{Workers: c.jobs})
	seeds := make([]int64, c.runs)
	for i := range seeds {
		seeds[i] = c.seed + int64(i)
	}

	baseJob := func(seed int64) runner.Job {
		return runner.Job{
			Collector: c.collector, Program: c.prog,
			HeapBytes: c.heap, PhysBytes: c.phys, Seed: seed,
		}
	}
	mainJob := func(seed int64) runner.Job {
		j := runner.Job{
			Collector: c.collector, Program: c.prog,
			HeapBytes: c.heap, PhysBytes: c.phys, Seed: seed,
			Chaos: c.chaos, HeapPolicy: c.heapPolicy,
		}
		if c.jvms > 1 {
			j.JVMs = c.jvms
			return j
		}
		switch {
		case c.stealFrac > 0:
			j.Pressure = sim.SteadyPressure(c.heap, c.stealFrac)
		case c.availMB > 0:
			base := rn.Result(baseJob(seed))
			if !base.OK() {
				return j // the main run will fail the same way; report there
			}
			avail := mem.RoundUpPage(uint64(c.availMB * c.scale * (1 << 20)))
			initial := mem.RoundUpPage(uint64(30 * c.scale * (1 << 20)))
			grow := mem.RoundUpPage(uint64(c.scale * (1 << 20)))
			j.Pressure = sim.CalibratedDynamicPressure(c.phys, avail, initial, grow,
				time.Duration(base.One().ElapsedSecs*float64(time.Second)))
		}
		return j
	}

	if c.availMB > 0 && c.jvms == 1 {
		base := make([]runner.Job, len(seeds))
		for i, s := range seeds {
			base[i] = baseJob(s)
		}
		rn.RunAll(base)
	}
	jobs := make([]runner.Job, len(seeds))
	for i, s := range seeds {
		jobs[i] = mainJob(s)
	}
	rn.RunAll(jobs)

	var execs, pauses []float64
	failed := 0
	for i, s := range seeds {
		res := rn.Result(jobs[i])
		if res.Err != "" {
			fmt.Printf("seed %d: FAILED: %s\n", s, res.Err)
			failed++
			continue
		}
		okRun := true
		for jvm, rd := range res.Runs {
			prefix := fmt.Sprintf("seed %d", s)
			if c.jvms > 1 {
				prefix = fmt.Sprintf("seed %d jvm%d", s, jvm)
			}
			if !rd.OK() {
				fmt.Printf("%s: FAILED: %s\n", prefix, rd.Err)
				okRun = false
				continue
			}
			fmt.Printf("%s: %s\n", prefix, runDataSummary(c.collector, c.prog, rd))
		}
		if !okRun {
			failed++
			continue
		}
		var end float64
		var pauseSum time.Duration
		var pauseN int
		for _, rd := range res.Runs {
			if rd.ElapsedSecs > end {
				end = rd.ElapsedSecs
			}
			tl := rd.Timeline()
			for _, p := range tl.Pauses {
				pauseSum += p.Dur
			}
			pauseN += len(tl.Pauses)
		}
		execs = append(execs, end)
		if pauseN > 0 {
			pauses = append(pauses, float64(pauseSum)/float64(pauseN))
		}
	}

	if len(execs) > 0 {
		mean, min, max := stats(execs)
		fmt.Printf("aggregate over %d/%d seeds: exec mean=%.3fs min=%.3fs max=%.3fs",
			len(execs), len(seeds), mean, min, max)
		if len(pauses) > 0 {
			pm, _, _ := stats(pauses)
			fmt.Printf(" avgPause mean=%v", round(time.Duration(pm)))
		}
		fmt.Println()
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "gcsim: %d of %d seeds failed\n", failed, len(seeds))
		prof.Exit(1)
	}
}

// stats returns the mean, minimum and maximum of xs (len > 0).
func stats(xs []float64) (mean, min, max float64) {
	min, max = xs[0], xs[0]
	for _, x := range xs {
		mean += x
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return mean / float64(len(xs)), min, max
}

// runDataSummary mirrors summary for a runner.RunData, whose timeline is
// reconstructed from the serialized pause list.
func runDataSummary(col sim.CollectorKind, prog mutator.Spec, rd runner.RunData) string {
	tl := rd.Timeline()
	return fmt.Sprintf(
		"%s/%s: exec=%.3fs alloc=%dB gcs=%d (nursery=%d full=%d compact=%d failsafe=%d) avgPause=%v maxPause=%v majflt=%d bookmarked=%d evictedPages=%d",
		col, prog.Name,
		rd.ElapsedSecs, rd.AllocatedBytes,
		tl.Count(), rd.Nursery, rd.Full, rd.Compactions, rd.FailSafe,
		round(tl.AvgPause()), round(tl.MaxPause()),
		rd.Proc.MajorFaults, rd.Bookmarked, rd.PagesEvicted)
}

func summary(r sim.Result) string {
	st := r.GCStats
	return fmt.Sprintf(
		"%s/%s: exec=%.3fs alloc=%dB gcs=%d (nursery=%d full=%d compact=%d failsafe=%d) avgPause=%v maxPause=%v majflt=%d bookmarked=%d evictedPages=%d",
		r.Config.Collector, r.Config.Program.Name,
		r.ElapsedSecs, r.Mutator.AllocatedBytes,
		r.Timeline.Count(), st.Nursery, st.Full, st.Compactions, st.FailSafe,
		round(r.Timeline.AvgPause()), round(r.Timeline.MaxPause()),
		r.ProcStats.MajorFaults, st.Bookmarked, st.PagesEvicted)
}

func round(d time.Duration) time.Duration { return d.Round(10 * time.Microsecond) }
