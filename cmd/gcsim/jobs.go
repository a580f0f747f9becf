package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"bookmarkgc/internal/fault"
	"bookmarkgc/internal/mutator"
	"bookmarkgc/internal/runner"
	"bookmarkgc/internal/sim"
	"bookmarkgc/internal/telemetry"
	"bookmarkgc/internal/trace"
)

// jobs is the only place the flags become simulations: one runner.Job
// per seed, or the one fleet job. Whatever a job cannot express it
// rejects here (runner.Job.Validate), before anything runs.
func (c *config) jobs() ([]runner.Job, error) {
	heap, phys := c.bytes(c.heapMB), c.bytes(c.physMB)
	var job runner.Job
	if c.jvms > 1 {
		job.JVMs = c.jvms
	}
	if c.chaos != "" {
		cfg, _ := fault.ByName(c.chaos, c.chaosSeed) // validate checked the name
		job.Chaos = &cfg
	}
	// signalmem's dynamic schedule (§5.3.2): grab 30 MB, then 1 MB a step
	// until -avail is left. The step interval is calibrated per seed below.
	ramp := sim.Pressure{InitialBytes: c.bytes(30), GrowBytes: c.bytes(1), TargetAvailBytes: c.bytes(c.availMB)}
	switch {
	case c.steal > 0:
		job.Pressure = sim.SteadyPressure(heap, c.steal)
	case c.availMB > 0:
		job.Pressure = &ramp
	}

	if c.fleet != "" {
		spec, err := c.fleetSpec(phys)
		if err != nil {
			return nil, fmt.Errorf("-fleet: %w", err)
		}
		job.Fleet = &spec
		return []runner.Job{job}, job.Validate()
	}

	prog, _ := mutator.ByName(c.program) // validate checked the name
	job.Collector, job.Program = sim.CollectorKind(c.collector), prog.Scale(c.scale)
	job.HeapBytes, job.PhysBytes = heap, phys
	job.HeapPolicy = c.heapPolicy
	if err := job.Validate(); err != nil {
		return nil, err
	}
	jobs := make([]runner.Job, c.runs)
	for i := range jobs {
		jobs[i] = job
		jobs[i].Seed = c.seed + int64(i)
	}
	if c.availMB == 0 {
		return jobs, nil
	}

	// Calibrate the ramp to each seed's workload: an unpressured run sets
	// the baseline the ramp completes a third of the way into, as in the
	// paper's measured iterations. A seed whose baseline fails has that
	// failure for its outcome.
	bases := make([]runner.Job, len(jobs))
	for i, j := range jobs {
		bases[i] = runner.Job{Collector: j.Collector, Program: j.Program, HeapBytes: heap, PhysBytes: phys, Seed: j.Seed}
	}
	for i, base := range runner.New(runner.Options{Workers: c.workers}).RunAll(bases) {
		if !base.OK() {
			jobs[i] = bases[i]
			continue
		}
		jobs[i].Pressure = sim.CalibratedDynamicPressure(phys, ramp.TargetAvailBytes, ramp.InitialBytes, ramp.GrowBytes,
			time.Duration(base.One().ElapsedSecs*float64(time.Second)))
	}
	return jobs, nil
}

// fleetSpec resolves -fleet: "mixedN" builds the stock N-tenant mixed
// fleet from -scale, -seed and -chaos-seed; anything else is a
// tenant-spec file (JSON, strict), whose seeds the flags override when
// given. -phys, -fleet-policy and -heap-policy override either.
func (c *config) fleetSpec(phys uint64) (sim.FleetSpec, error) {
	var spec sim.FleetSpec
	if rest, ok := strings.CutPrefix(c.fleet, "mixed"); ok && !strings.ContainsAny(c.fleet, "./") {
		n := 16
		if rest != "" {
			var err error
			if n, err = strconv.Atoi(rest); err != nil || n < 1 {
				return spec, fmt.Errorf("bad -fleet %q: mixedN needs a positive tenant count", c.fleet)
			}
		}
		spec = sim.DefaultFleetSpec(n, c.scale, c.seed, c.chaosSeed)
	} else {
		data, err := os.ReadFile(c.fleet)
		if err != nil {
			return spec, err
		}
		if spec, err = sim.LoadFleetSpec(data); err != nil {
			return spec, err
		}
		if c.set["seed"] {
			spec.Seed = c.seed
		}
		if c.set["chaos-seed"] {
			spec.ChaosSeed = c.chaosSeed
		}
	}
	if c.set["phys"] {
		spec.PhysBytes = phys
	}
	if c.fleetPolicy != "" {
		spec.Policy = sim.ArbitrationPolicy(c.fleetPolicy)
	}
	if c.heapPolicy != "" {
		spec.HeapPolicy = c.heapPolicy
	}
	return spec, nil
}

// host builds the other half of the run from the flags — what watches
// it. A fleet is watched only by its flight recorders. A single run gets
// a recorder for -trace, a registry for -counters (telemetry needs one
// too: the flight recorder's chaos trigger watches fail-safe and backoff
// counters, and /metrics exports the telemetry self-counters), and a
// telemetry collector, served over -http from before the run so the
// dashboard is live while it executes.
func (c *config) host(stderr io.Writer) (runner.Host, error) {
	var h runner.Host
	if c.fleet != "" {
		h.FlightDir = c.flightDir
		return h, nil
	}
	if c.traceOut != "" {
		h.Trace = trace.NewRecorder(nil, c.collector)
	}
	if c.counters || c.traceOut != "" || c.telemetryOn() {
		h.Counters = trace.NewCounters()
	}
	if !c.telemetryOn() {
		return h, nil
	}
	h.Telemetry = telemetry.New(telemetry.Config{SampleEvery: c.sampleEvery, FlightDir: c.flightDir})
	if c.httpAddr == "" {
		return h, nil
	}
	ln, err := net.Listen("tcp", c.httpAddr)
	if err != nil {
		return h, fmt.Errorf("-http: %w", err)
	}
	fmt.Fprintf(stderr, "gcsim: serving telemetry on http://%s/\n", ln.Addr())
	go func() {
		srv := &http.Server{Handler: telemetry.NewMux(telemetry.ServerOptions{
			Telemetry: h.Telemetry,
			Title:     fmt.Sprintf("gcsim %s/%s", c.collector, c.program),
		})}
		if err := srv.Serve(ln); err != nil {
			fmt.Fprintf(stderr, "gcsim: http server: %v\n", err)
		}
	}()
	return h, nil
}
