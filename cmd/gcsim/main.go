// Command gcsim runs benchmark programs under a collector on the
// simulated machine and prints their measurements — the building block
// the experiment harness sweeps.
//
// Every invocation goes one way: the flags fill one config, the config
// becomes runner.Jobs (one per seed, or the one fleet job), one runner
// call executes them, and one printer renders every run.
//
// What runs:
//
//	-collector k   collector kind (gcsim -list names them; default BC)
//	-program p     benchmark program of Table 1 (default pseudojbb)
//	-heap mb       heap size in MB at paper scale (default 77)
//	-phys mb       physical memory in MB at paper scale (default 256)
//	-scale f       factor applied to every byte quantity (default 0.25)
//	-seed n        workload seed (default 1)
//	-steal f       steady pressure: pin f*heap at once (Figure 3)
//	-avail mb      dynamic pressure: signalmem ramps until mb megabytes
//	               stay available (Figures 4 and 5), its rate calibrated
//	               by an unpressured run of the same seed
//	-jvms n        n instances round-robin on one machine (Figure 7)
//	-runs n        n consecutive seeds (-seed, -seed+1, ...): one summary
//	               line per seed, then aggregates
//	-chaos r       inject kernel faults into the cooperation protocol
//	               (drop, delay, duplicate, reorder, no-notify,
//	               reload-storm, thrash); -chaos-seed n seeds the injector
//	-heap-policy p heap-limit policy (fixed, bc-shrink, membalancer,
//	               composed; "" keeps the collector's own). With -fleet it
//	               overrides the spec's policy for every tenant
//	-fleet s       a multi-tenant fleet sharing one machine: s is a
//	               tenant-spec JSON file, or mixedN for the stock N-tenant
//	               mixed fleet. -phys, -seed and -chaos-seed override the
//	               spec when given; -fleet-policy p picks the eviction
//	               arbitration (global-lru, proportional, cooperative)
//
// What watches it (none of this can move a simulated result):
//
//	-bmu              print the BMU curve
//	-trace f          write GC phase spans and VM-cooperation events to f;
//	                  -trace-format chrome (Perfetto-loadable) or jsonl
//	-counters         print the event-counter registry after the run
//	-http addr        serve /metrics, the dashboard, /api/* and
//	                  /debug/pprof/ during the run, and keep serving after it
//	-telemetry-out f  write the sampled time series (.jsonl: samples,
//	                  pauses and exact per-kind percentiles; else CSV)
//	-sample-every d   sampling interval in simulated time (default 1ms)
//	-flight-dump-dir d  write flight-recorder bundles (anomaly dumps) to d
//	-jobs n           concurrent simulations for -runs (default GOMAXPROCS)
//	-cpuprofile f, -memprofile f  host pprof profiles of the whole command,
//	                  written on every exit, failures included
//
// -http, -telemetry-out, -sample-every and -flight-dump-dir each arm the
// telemetry layer (DESIGN.md §12): the deterministic sampler, per-pause
// phase attribution and the flight recorder.
//
//	-list   print the simulator's inventory (programs, collectors, counter
//	        groups, heap policies, chaos regimes, synthesizer models,
//	        *.gctrace files in the current directory) and exit
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"bookmarkgc/internal/fault"
	"bookmarkgc/internal/hostprof"
	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/mutator"
	"bookmarkgc/internal/runner"
	"bookmarkgc/internal/vmm"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is the parsed command line: every flag's value, and which of
// them were given explicitly.
type config struct {
	collector, program     string
	heapMB, physMB, scale  float64
	steal, availMB         float64
	seed, chaosSeed        int64
	jvms, runs             int
	workers                int
	chaos, heapPolicy      string
	fleet, fleetPolicy     string
	bmu, counters, list    bool
	traceOut, traceFormat  string
	httpAddr, telemetryOut string
	sampleEvery            time.Duration
	flightDir              string

	fs   *flag.FlagSet
	prof *hostprof.Flags
	set  map[string]bool
}

// parse declares gcsim's flags — this is the one table the package
// comment and README.md describe — and fills a config from args.
func parse(args []string, stderr io.Writer) (*config, error) {
	c := &config{fs: flag.NewFlagSet("gcsim", flag.ContinueOnError), set: map[string]bool{}}
	fs := c.fs
	fs.SetOutput(stderr)
	fs.StringVar(&c.collector, "collector", "BC", "collector kind ("+strings.Join(kindNames(), ", ")+")")
	fs.StringVar(&c.program, "program", "pseudojbb", "benchmark program (see Table 1)")
	fs.Float64Var(&c.heapMB, "heap", 77, "heap size in MB (paper scale)")
	fs.Float64Var(&c.physMB, "phys", 256, "physical memory in MB (paper scale)")
	fs.Float64Var(&c.steal, "steal", 0, "steady pressure: immediately pin this fraction of the heap")
	fs.Float64Var(&c.availMB, "avail", 0, "dynamic pressure: signalmem target available MB (0 = off)")
	fs.Float64Var(&c.scale, "scale", 0.25, "scale factor applied to all byte quantities")
	fs.Int64Var(&c.seed, "seed", 1, "workload seed")
	fs.IntVar(&c.jvms, "jvms", 1, "number of simultaneous JVM instances")
	fs.IntVar(&c.runs, "runs", 1, "sweep this many consecutive seeds and print aggregates")
	fs.IntVar(&c.workers, "jobs", runtime.GOMAXPROCS(0), "maximum concurrent simulations for -runs")
	fs.BoolVar(&c.bmu, "bmu", false, "print the BMU curve")
	fs.StringVar(&c.chaos, "chaos", "", "inject kernel faults: drop, delay, duplicate, reorder, no-notify, reload-storm, thrash")
	fs.Int64Var(&c.chaosSeed, "chaos-seed", 1, "seed for the fault injector's PRNG")
	fs.StringVar(&c.heapPolicy, "heap-policy", "", "heap-limit policy: fixed, bc-shrink, membalancer, composed ('' = collector default; with -fleet, overrides the spec)")
	fs.StringVar(&c.fleet, "fleet", "", "run a multi-tenant fleet: a tenant-spec JSON file, or mixedN for the stock N-tenant mixed fleet")
	fs.StringVar(&c.fleetPolicy, "fleet-policy", "", "fleet eviction-arbitration policy: global-lru, proportional, cooperative (overrides the spec)")
	fs.StringVar(&c.traceOut, "trace", "", "write a GC event trace to this file")
	fs.StringVar(&c.traceFormat, "trace-format", "chrome", "trace file format: chrome (Perfetto-loadable) or jsonl")
	fs.BoolVar(&c.counters, "counters", false, "print the event-counter registry after the run")
	fs.BoolVar(&c.list, "list", false, "list programs, collectors, counter groups, chaos regimes, trace models and files, then exit")
	fs.StringVar(&c.httpAddr, "http", "", "serve /metrics, the dashboard and /debug/pprof on this address (e.g. :8080)")
	fs.StringVar(&c.telemetryOut, "telemetry-out", "", "write the telemetry time series to this file (.jsonl or CSV)")
	fs.DurationVar(&c.sampleEvery, "sample-every", time.Millisecond, "telemetry sampling interval in simulated time")
	fs.StringVar(&c.flightDir, "flight-dump-dir", "", "write flight-recorder bundles (anomaly dumps) to this directory")
	c.prof = hostprof.Register(fs)
	err := fs.Parse(args)
	fs.Visit(func(f *flag.Flag) { c.set[f.Name] = true })
	return c, err
}

// telemetryOn reports whether any telemetry flag was given. -sample-every
// counts only when explicit: its default must not arm the sampler.
func (c *config) telemetryOn() bool {
	return c.httpAddr != "" || c.telemetryOut != "" || c.flightDir != "" || c.set["sample-every"]
}

// bytes converts a megabyte figure at paper scale to this run's bytes.
func (c *config) bytes(mb float64) uint64 {
	return mem.RoundUpPage(uint64(mb * c.scale * (1 << 20)))
}

// validate holds every rule about the flags themselves: ranges, names,
// and combinations that contradict. What the simulator cannot run for
// reasons of its own — multi-JVM with pressure or chaos, unknown heap
// policies, a fleet with single-run settings — is runner.Job.Validate's
// to say, once the flags have become jobs.
func (c *config) validate() error {
	switch {
	case c.steal > 0 && c.availMB > 0:
		return errors.New("-steal and -avail are mutually exclusive pressure schedules; pick one")
	case c.steal < 0 || c.steal >= 1:
		return fmt.Errorf("-steal %v out of range [0, 1)", c.steal)
	case c.availMB < 0:
		return fmt.Errorf("-avail %v must be non-negative", c.availMB)
	case c.jvms < 1:
		return fmt.Errorf("-jvms %d must be at least 1", c.jvms)
	case c.runs < 1:
		return fmt.Errorf("-runs %d must be at least 1", c.runs)
	case c.sampleEvery <= 0:
		return fmt.Errorf("-sample-every %v must be positive", c.sampleEvery)
	case c.telemetryOn() && (c.runs > 1 || c.jvms > 1):
		return errors.New("telemetry instruments exactly one simulation; drop -runs/-jvms or the telemetry flags")
	case c.runs > 1 && (c.bmu || c.traceOut != "" || c.counters):
		return errors.New("-runs is a summary sweep; -bmu, -trace and -counters need a single run")
	case c.scale <= 0:
		return fmt.Errorf("-scale %v must be positive", c.scale)
	case c.heapMB <= 0 || c.physMB <= 0:
		return fmt.Errorf("-heap and -phys must be positive (got %v, %v)", c.heapMB, c.physMB)
	case c.traceFormat != "chrome" && c.traceFormat != "jsonl":
		return fmt.Errorf("-trace-format %q must be chrome or jsonl", c.traceFormat)
	case c.fleetPolicy != "" && c.fleet == "":
		return errors.New("-fleet-policy needs -fleet")
	}
	if c.chaos != "" {
		if _, ok := fault.ByName(c.chaos, 0); !ok {
			return fmt.Errorf("unknown -chaos regime %q (regimes: %s)", c.chaos, strings.Join(fault.Regimes(), ", "))
		}
	}
	if c.fleet != "" {
		// A fleet's report is its own; the single-run views have nothing
		// to show of it.
		if c.runs > 1 || c.bmu || c.traceOut != "" || c.counters ||
			c.httpAddr != "" || c.telemetryOut != "" || c.set["sample-every"] {
			return errors.New("-fleet runs carry their configuration in the spec; drop the single-run flags")
		}
		return nil
	}
	if _, ok := mutator.ByName(c.program); !ok {
		return fmt.Errorf("unknown program %q", c.program)
	}
	if phys := c.bytes(c.physMB); phys < vmm.MinPhysBytes {
		return fmt.Errorf("-phys %v at -scale %v is a %d-byte machine; the smallest simulable machine is %d bytes",
			c.physMB, c.scale, phys, vmm.MinPhysBytes)
	}
	return nil
}

// run is gcsim: it returns the exit code main leaves with, so the
// deferred profile flush covers every path and a test can call it.
func run(args []string, stdout, stderr io.Writer) int {
	c, err := parse(args, stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2 // the flag package has said why, and printed the usage
	}
	if err := c.prof.Start(); err != nil {
		fmt.Fprintf(stderr, "gcsim: %v\n", err)
		return 1
	}
	defer c.prof.Stop(stderr)

	if c.list {
		listInventory(stdout)
		return 0
	}
	if err := c.validate(); err != nil {
		fmt.Fprintf(stderr, "gcsim: %v\n", err)
		c.fs.Usage()
		return 2
	}
	jobs, err := c.jobs()
	if err != nil {
		fmt.Fprintf(stderr, "gcsim: %v\n", err)
		return 2
	}
	host, err := c.host(stderr)
	if err != nil {
		fmt.Fprintf(stderr, "gcsim: %v\n", err)
		return 1
	}
	results := runner.New(runner.Options{Workers: c.workers, Host: host}).RunAll(jobs)
	code := c.report(stdout, stderr, jobs, results, host)
	if code == 0 && c.httpAddr != "" {
		fmt.Fprintln(stderr, "gcsim: run complete; still serving (interrupt to exit)")
		select {}
	}
	return code
}
