package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"bookmarkgc/internal/fault"
	"bookmarkgc/internal/heappolicy"
	"bookmarkgc/internal/metrics"
	"bookmarkgc/internal/mutator"
	"bookmarkgc/internal/runner"
	"bookmarkgc/internal/sim"
	"bookmarkgc/internal/telemetry"
	"bookmarkgc/internal/trace"
	"bookmarkgc/internal/workload"
)

func round(d time.Duration) time.Duration { return d.Round(10 * time.Microsecond) }

// report prints every run of every result and returns the exit code.
// Runs are told apart by prefix — "seed N" under -runs, "jvmN" under
// -jvms, both, or nothing for the sole run of a plain invocation, which
// alone gets the views that describe one run: the injector's tally, the
// BMU curve, the telemetry report.
func (c *config) report(stdout, stderr io.Writer, jobs []runner.Job, results []*runner.Result, h runner.Host) int {
	if c.fleet != "" {
		return c.fleetReport(stdout, stderr, jobs[0].Fleet, results[0])
	}
	var execs, pauses []float64
	for i, res := range results {
		var seed string
		if c.runs > 1 {
			seed = fmt.Sprintf("seed %d", runJob(jobs[i], 0).Seed)
		}
		if res.Err != "" {
			// Nothing ran: an unknown collector, or a simulator panic.
			if seed == "" {
				fmt.Fprintf(stderr, "gcsim: %s\n", res.Err)
				return 2
			}
			fmt.Fprintf(stdout, "%s: FAILED: %s\n", seed, res.Err)
			continue
		}
		var end float64
		var pauseSum time.Duration
		var pauseN int
		for k, rd := range res.Runs {
			prefix := seed
			if c.jvms > 1 {
				prefix = strings.TrimSpace(fmt.Sprintf("%s jvm%d", seed, k))
			}
			switch {
			case prefix == "":
				if code := c.soleRun(stdout, stderr, jobs[i], rd, h.Telemetry); code != 0 {
					return code
				}
			case rd.OK():
				j := runJob(jobs[i], k)
				fmt.Fprintf(stdout, "%s: %s\n", prefix, rd.Summary(j.Collector, j.Program.Name))
			default:
				fmt.Fprintf(stdout, "%s: FAILED: %s\n", prefix, rd.Err)
			}
			end = max(end, rd.ElapsedSecs)
			for _, p := range rd.Pauses {
				pauseSum += time.Duration(p.DurNS)
			}
			pauseN += len(rd.Pauses)
		}
		if res.OK() {
			execs = append(execs, end)
			if pauseN > 0 {
				pauses = append(pauses, float64(pauseSum)/float64(pauseN))
			}
		}
	}
	if c.runs == 1 {
		return c.exportTrace(stdout, stderr, h)
	}
	if len(execs) > 0 {
		mean, lo, hi := stats(execs)
		fmt.Fprintf(stdout, "aggregate over %d/%d seeds: exec mean=%.3fs min=%.3fs max=%.3fs",
			len(execs), len(results), mean, lo, hi)
		if len(pauses) > 0 {
			pm, _, _ := stats(pauses)
			fmt.Fprintf(stdout, " avgPause mean=%v", round(time.Duration(pm)))
		}
		fmt.Fprintln(stdout)
	}
	if failed := len(results) - len(execs); failed > 0 {
		fmt.Fprintf(stderr, "gcsim: %d of %d seeds failed\n", failed, len(results))
		return 1
	}
	return 0
}

// runJob is job j as its run k sees it: under -jvms, the fleet's tenant
// k with the fleet's seed; otherwise j itself.
func runJob(j runner.Job, k int) runner.Job {
	if f := j.Fleet; f != nil {
		t := f.Tenants[k]
		return runner.Job{Collector: t.Collector, Program: t.Program, Seed: f.Seed}
	}
	return j
}

// stats returns the mean, minimum and maximum of xs (len > 0).
func stats(xs []float64) (mean, lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs {
		mean += x
		lo, hi = min(lo, x), max(hi, x)
	}
	return mean / float64(len(xs)), lo, hi
}

// soleRun reports the one run of a plain invocation. A failed run still
// gets its telemetry reported (the flight recorder has already dumped an
// "oom" bundle if armed); live data over the heap budget exits 1 with a
// hint, anything else 2.
func (c *config) soleRun(stdout, stderr io.Writer, j runner.Job, rd runner.RunData, tel *telemetry.Collector) int {
	if rd.OK() {
		fmt.Fprintln(stdout, rd.Summary(j.Collector, j.Program.Name))
		if rd.Faults != "" {
			fmt.Fprintf(stdout, "chaos(%s, seed %d): %s\n", c.chaos, c.chaosSeed, rd.Faults)
		}
		if c.bmu {
			tl := rd.Timeline()
			total := tl.Elapsed()
			fmt.Fprintln(stdout, "BMU curve (window -> utilization):")
			for _, pt := range tl.BMUCurve(total/1000, total, 12) {
				fmt.Fprintf(stdout, "  %8.4fs  %.3f\n", pt[0], pt[1])
			}
		}
	}
	if tel != nil {
		telemetryReport(stdout, tel, rd.Timeline())
		if err := writeTelemetry(stdout, tel, c.telemetryOut); err != nil {
			fmt.Fprintf(stderr, "gcsim: %v\n", err)
			return 1
		}
	}
	switch {
	case rd.OK():
		return 0
	case rd.OOM:
		fmt.Fprintf(stderr, "gcsim: %s\ngcsim: the workload's live data does not fit this heap — raise -heap or -scale\n", rd.Err)
		return 1
	}
	fmt.Fprintf(stderr, "gcsim: %s\n", rd.Err)
	return 2
}

// fleetReport prints the deterministic fleet report: per-tenant
// summaries in spec order, then the fleet-level aggregates. Every figure
// is simulated-clock data, so the bytes are identical for any host
// parallelism.
func (c *config) fleetReport(stdout, stderr io.Writer, spec *sim.FleetSpec, res *runner.Result) int {
	if res.Err != "" {
		fmt.Fprintf(stderr, "gcsim: %s\n", res.Err)
		return 2
	}
	fd := res.Fleet
	pol := fd.InitialPolicy
	if fd.Policy != fd.InitialPolicy {
		pol += "->" + fd.Policy
	}
	fmt.Fprintf(stdout, "fleet: %d tenants, phys=%dB, policy=%s, cascades=%d\n",
		len(res.Runs), spec.PhysBytes, pol, fd.Cascades)
	failed := 0
	for i, rd := range res.Runs {
		label := fmt.Sprintf("  %-14s", rd.Name)
		if !rd.OK() {
			fmt.Fprintf(stdout, "%s FAILED: %s\n", label, rd.Err)
			failed++
			continue
		}
		line := fmt.Sprintf("%s exec=%.3fs gcs=%d majflt=%d evict=%d p99=%v",
			label, rd.ElapsedSecs, len(rd.Pauses), rd.Proc.MajorFaults, rd.Proc.Evictions,
			round(time.Duration(fd.PauseP99NS[i])))
		if chaos := spec.Tenants[i].Chaos; chaos != "" {
			line += " chaos=" + chaos
		}
		fmt.Fprintln(stdout, line)
	}
	fmt.Fprintf(stdout, "fleet aggregates: major=%d minor=%d evict=%d vetoes=%d fairness=%.3f elapsed=%.3fs\n",
		fd.AggMajorFaults, fd.AggMinorFaults, fd.AggEvictions, fd.ArbiterVetoes, fd.Fairness, fd.ElapsedSecs)
	if fd.Escalated {
		fmt.Fprintf(stdout, "fleet escalation: %s -> %s after a sustained cascade\n", fd.InitialPolicy, fd.Policy)
	}
	if len(fd.FleetDumps) > 0 {
		fmt.Fprintf(stdout, "fleet dumps: %d cascade bundles -> %s\n", len(fd.FleetDumps), c.flightDir)
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "gcsim: %d of %d tenants failed\n", failed, len(res.Runs))
		return 1
	}
	return 0
}

// telemetryReport prints the sampler's summary and the per-kind pause
// attribution: each kind's pause time split into phase self-time plus
// the simulated cost of the major faults taken inside the pause (the
// paper's disk stalls).
func telemetryReport(w io.Writer, tel *telemetry.Collector, tl metrics.Timeline) {
	pauses := tel.Pauses()
	fmt.Fprintf(w, "telemetry: %d samples, %d pauses, %d flight dumps\n",
		tel.SampleCount(), len(pauses), tel.FlightDumps())
	if tl.Count() > 0 {
		fmt.Fprintf(w, "pause latency: p50=%v p95=%v p99=%v p99.9=%v max=%v\n",
			round(tl.Percentile(50)), round(tl.Percentile(95)),
			round(tl.Percentile(99)), round(tl.Percentile(99.9)), round(tl.MaxPause()))
	}
	for _, kind := range []metrics.PauseKind{metrics.PauseNursery, metrics.PauseFull, metrics.PauseCompact} {
		var (
			n                   int
			total, stall, other time.Duration
			phases              [trace.NumPhases]time.Duration
			faults              uint64
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
			for ph := range phases {
				phases[ph] += p.PhaseNS[ph]
			}
		}
		if n == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-8s n=%d total=%v p50=%v p99=%v:", kind, n,
			round(total), round(tl.PercentileKind(kind, 50)), round(tl.PercentileKind(kind, 99)))
		for ph := trace.Phase(0); int(ph) < trace.NumPhases; ph++ {
			if ph == kind.Phase() {
				continue // the pause span's self-time is "other" below
			}
			if phases[ph] > 0 {
				fmt.Fprintf(w, " %s=%v", ph, round(phases[ph]))
			}
		}
		fmt.Fprintf(w, " other=%v", round(other))
		if faults > 0 {
			fmt.Fprintf(w, " fault-stall=%v (majflt=%d)", round(stall), faults)
		}
		fmt.Fprintln(w)
	}
}

// writeFile creates path and streams write's output, a what, into it.
func writeFile(path, what string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = write(w)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing %s: %w", what, err)
	}
	return nil
}

// writeTelemetry exports the sampled series: .jsonl gets the full
// samples+pauses+percentiles stream, anything else the columnar CSV.
func writeTelemetry(stdout io.Writer, tel *telemetry.Collector, path string) error {
	if path == "" {
		return nil
	}
	write := tel.WriteCSV
	if strings.HasSuffix(path, ".jsonl") {
		write = tel.WriteJSONL
	}
	if err := writeFile(path, "telemetry", write); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "telemetry: %d samples -> %s\n", tel.SampleCount(), path)
	return nil
}

// exportTrace writes the -trace file — .jsonl gets one event a line and
// the counters record, anything else Chrome trace_event JSON — and
// prints the -counters registry.
func (c *config) exportTrace(stdout, stderr io.Writer, h runner.Host) int {
	if h.Trace != nil {
		format, write := "chrome", func(w io.Writer) error { return h.Trace.WriteChrome(w, "gcsim") }
		if strings.HasSuffix(c.traceOut, ".jsonl") {
			format, write = "jsonl", func(w io.Writer) error {
				if err := h.Trace.WriteJSONL(w); err != nil {
					return err
				}
				return h.Counters.WriteJSONL(w)
			}
		}
		if err := writeFile(c.traceOut, "trace", write); err != nil {
			fmt.Fprintf(stderr, "gcsim: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace: %d events -> %s (%s)\n", h.Trace.Len(), c.traceOut, format)
	}
	if c.counters {
		fmt.Fprintln(stdout, "counters:")
		h.Counters.WriteText(stdout)
	}
	return 0
}

// kindNames is every collector kind -collector accepts.
func kindNames() []string {
	names := make([]string, len(sim.KnownKinds))
	for i, k := range sim.KnownKinds {
		names[i] = string(k)
	}
	return names
}

// listInventory prints everything the simulator can run: the benchmark
// programs (Table 1), the collector kinds, every counter group, the heap
// policies, the chaos regimes, the trace synthesizer models, and any
// recorded traces in the current directory.
func listInventory(w io.Writer) {
	fmt.Fprintln(w, "programs (-program; sizes at paper scale 1.0):")
	for _, p := range mutator.Programs {
		fmt.Fprintf(w, "  %-10s  alloc=%4dMB minHeap=%3dMB\n", p.Name, p.TotalAlloc>>20, p.MinHeap>>20)
	}
	fmt.Fprintln(w, "collectors (-collector):")
	for _, k := range sim.KnownKinds {
		fmt.Fprintf(w, "  %s\n", k)
	}
	for _, g := range trace.CounterGroups() {
		fmt.Fprintf(w, "%s counters (-counters):\n", g)
		for _, c := range trace.CountersIn(g) {
			fmt.Fprintf(w, "  %s\n", c)
		}
	}
	fmt.Fprintf(w, "heap-limit policies (-heap-policy): %s\n", strings.Join(heappolicy.Names(), ", "))
	fmt.Fprintf(w, "chaos regimes (-chaos): %s\n", strings.Join(fault.Regimes(), ", "))
	fmt.Fprintf(w, "trace synthesizer models (gctrace gen -model): %s\n", strings.Join(workload.Models, ", "))

	paths, _ := filepath.Glob("*.gctrace")
	if len(paths) == 0 {
		fmt.Fprintln(w, "trace files (*.gctrace in .): none")
		return
	}
	fmt.Fprintln(w, "trace files (*.gctrace in .):")
	for _, p := range paths {
		meta, err := workload.ReadMeta(p)
		if err != nil {
			fmt.Fprintf(w, "  %-24s  unreadable: %v\n", p, err)
			continue
		}
		fmt.Fprintf(w, "  %-24s  name=%s source=%s seed=%d collector=%s\n",
			p, meta.Name, meta.Source, meta.Seed, meta.Collector)
	}
}
