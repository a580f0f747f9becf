package main

import (
	"runtime"

	"bookmarkgc/internal/core"
	"bookmarkgc/internal/gc"
	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/mutator"
	"bookmarkgc/internal/sim"
	"bookmarkgc/internal/trace"
	"bookmarkgc/internal/vmm"
)

// traceCtx is what a traced pass hands its units: the span recorder and
// the exact counts of the pass, keyed by per-layer metric name.
type traceCtx struct {
	rec          *spanRecorder
	counts       map[string]float64
	longestJobNS map[string]int64 // sweep: longest job wall per experiment
}

func newTraceCtx(rec *spanRecorder) *traceCtx {
	return &traceCtx{rec: rec, counts: make(map[string]float64), longestJobNS: make(map[string]int64)}
}

func (tc *traceCtx) add(name string, v float64) { tc.counts[name] += v }

// addRun counts one finished JVM's paging and collection activity.
func (tc *traceCtx) addRun(p vmm.ProcStats, g gc.Stats) {
	tc.add("vmm.major_faults", float64(p.MajorFaults))
	tc.add("vmm.minor_faults", float64(p.MinorFaults))
	tc.add("vmm.evictions", float64(p.Evictions))
	tc.add("vmm.discards", float64(p.Discards))
	tc.add("core.bookmarked", float64(g.Bookmarked))
	tc.add("core.pages_evicted", float64(g.PagesEvicted))
	tc.add("core.failsafe_gcs", float64(g.FailSafe))
	tc.add("gc.nursery_gcs", float64(g.Nursery))
	tc.add("gc.full_gcs", float64(g.Full))
	tc.add("gc.compactions", float64(g.Compactions))
}

// addFleet counts what only a fleet run has: the engine's own rounds
// and the instrumentation that rides on it.
func (tc *traceCtx) addFleet(cfg sim.FleetConfig, fr sim.FleetResult) {
	quantum := cfg.Spec.Quantum
	for _, t := range fr.Tenants {
		tc.addRun(t.ProcStats, t.GCStats)
		tc.add("mutator.allocs", float64(t.Mutator.Allocations))
		tc.add("sim.fleet_quanta", float64((t.Mutator.Allocations+uint64(quantum)-1)/uint64(quantum)))
		if f := t.Faults; f != nil {
			tc.add("fault.injected", float64(f.EvictsDropped+f.EvictsDelayed+f.EvictsDuplicated+
				f.EvictsReordered+f.ReloadsDropped+f.SpuriousReloads+f.Muted+f.Spikes))
		}
	}
	tc.add("vmm.arbiter_vetoes", float64(fr.ArbiterVetoes))
	tc.add("sim.fleet_cascades", float64(fr.Cascades))
	tc.add("sim.fleet_balancer_rounds", float64(fr.BalancerRounds))
	tc.add("telemetry.samples", float64(cfg.Counters.Get(trace.CTelemetrySamples)))
	tc.add("heappolicy.observations", float64(cfg.Counters.Get(trace.CPolicyObservations)))
}

// timedHandler wraps the collector's own paging-notification handler:
// re-installed with Proc.Register, it times the cooperation protocol
// from outside.
type timedHandler struct {
	inner vmm.Handler
	rec   *spanRecorder
}

func (h *timedHandler) EvictionScheduled(p mem.PageID) {
	h.rec.begin(spanEvictNotice)
	h.inner.EvictionScheduled(p)
	h.rec.end(spanEvictNotice)
}

func (h *timedHandler) PageReloaded(p mem.PageID, wasEvicted bool) {
	h.rec.begin(spanReloadNotice)
	h.inner.PageReloaded(p, wasEvicted)
	h.rec.end(spanReloadNotice)
}

// runTraced is the benchmark's own copy of what sim.Run does for a plain
// configuration (no chaos, telemetry, recorder or heap-policy name),
// assembled from the same public constructors so that each layer
// boundary can be stamped: one span per Workload.Step, the collector's
// phases through the tracer, the cooperation handler through its
// wrapper. Its Result must be indistinguishable from sim.Run's — the
// pass compares fingerprints. The returned check runs the collector's
// own invariant checker after the spans are closed.
func runTraced(cfg sim.RunConfig, tc *traceCtx) (res sim.Result, check func() error) {
	// One thread for the whole job, as a plain sim.Run has in practice:
	// spans are wall-clock intervals and should not contain migrations.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	rec := tc.rec
	depth := len(rec.stack)
	check = func() error { return nil }

	rec.begin(spanJob)
	clock := vmm.NewClock()
	v := vmm.New(clock, cfg.PhysBytes, vmm.DefaultCosts())
	env := gc.NewEnv(v, string(cfg.Collector), cfg.HeapBytes)
	env.Trace = hostTracer{rec}
	if cfg.MarkWorkers > 0 {
		env.MarkWorkers = cfg.MarkWorkers
	}
	types := mutator.DeclareTypes(env)
	col, err := sim.NewCollector(cfg.Collector, env)
	if err != nil {
		rec.unwind(depth)
		return sim.Result{Config: cfg, Err: err}, check
	}
	if h := env.Proc.Handler(); h != nil {
		env.Proc.Register(&timedHandler{inner: h, rec: rec})
	}
	run, err := cfg.Program.NewWorkload(col, types, cfg.Seed)
	if err != nil {
		rec.unwind(depth)
		return sim.Result{Config: cfg, Err: err}, check
	}
	if cfg.Pressure != nil {
		sim.StartSignalMem(v, *cfg.Pressure, nil)
	}
	start := clock.Now()
	col.Stats().Timeline.Start = start

	finish := func(failure error) sim.Result {
		col.Stats().Timeline.End = clock.Now()
		return sim.Result{
			Config:      cfg,
			Timeline:    col.Stats().Timeline,
			Mutator:     run.Finish(),
			GCStats:     *col.Stats(),
			ProcStats:   env.Proc.Stats(),
			ElapsedSecs: (clock.Now() - start).Seconds(),
			Err:         failure,
		}
	}
	// Registered first, so it runs last: after the result is assembled
	// and the job span closed, check the heap, then give the slabs back
	// (the checker peeks at them).
	defer func() {
		if bc, ok := col.(*core.BC); ok && res.Err == nil {
			err := bc.CheckInvariants()
			check = func() error { return err }
		}
		rec.begin(spanTeardown)
		env.ReleaseScratch(col.Roots())
		env.Proc.Space().Release()
		rec.end(spanTeardown)
	}()
	defer func() {
		if r := recover(); r != nil {
			oom, ok := r.(gc.ErrOutOfMemory)
			if !ok {
				panic(r)
			}
			rec.unwind(depth + 1)
			res = finish(oom)
			rec.end(spanJob)
		}
	}()
	for more := true; more; {
		rec.begin(spanStep)
		more = run.Step(simRunQuantum)
		rec.end(spanStep)
	}
	res = finish(run.Err())
	rec.end(spanJob)
	return res, check
}

// simRunQuantum is sim.Run's step size for uninstrumented runs.
const simRunQuantum = 4096
