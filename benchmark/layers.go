package main

import (
	"fmt"

	"bookmarkgc/internal/sim"
	"bookmarkgc/internal/trace"
)

// tracedPasses is how many traced passes the traced run makes, and how
// many reference (untraced) passes it alternates them with. It is fixed:
// the traced run measures shares and counts, not a regression bound.
const tracedPasses = 6

// parallelUnit is the one unit with job-level host parallelism; the
// runner's efficiency figures are taken on it.
const parallelUnit = "fig4"

// perLayer runs reference (untraced) and traced passes alternately, then
// the layer probes, and assembles every per-layer metric. Metrics a
// workload cannot produce (collector phases inside a fleet, say) read 0.
func (rs *runState) perLayer(w workload, in inputs, outDir string) (map[string]float64, []string, error) {
	rec := &spanRecorder{}
	var ref, traced []passSample
	var counts map[string]float64
	var longestShare []float64
	for i := 0; i < tracedPasses; i++ {
		s, _ := rs.pass(rs.units, rs.first, nil)
		ref = append(ref, s)

		rec.pass = i
		tc := newTraceCtx(rec)
		s, _ = rs.pass(rs.units, rs.first, tc)
		traced = append(traced, s)
		if i == 0 {
			counts = tc.counts
		}
		for u, unit := range rs.units {
			if unit.name == parallelUnit {
				longestShare = append(longestShare, float64(tc.longestJobNS[unit.name])/1e9/s.unitWall[u])
			}
		}
	}
	if len(rec.stack) != 0 {
		return nil, nil, fmt.Errorf("traced run left %d spans open", len(rec.stack))
	}
	tracePath, err := writeTrace(outDir, w.name, rec.spans)
	if err != nil {
		return nil, nil, fmt.Errorf("writing trace: %w", err)
	}

	m := make(map[string]float64)
	for name, v := range counts {
		m[name] = v
	}
	// The simulated outcomes that are exact for a seed but vary too much
	// between seeds to carry a bound (README, "Simulated metrics").
	st := simTotals(rs.first)
	m["sim.gc_s"] = st.pauseSecs()
	m["sim.pauses"] = float64(st.Pauses)
	m["sim.pause_mean_ms"] = st.pauseMeanMS()

	// Span-derived host time uses the end-to-end estimator: the sum over
	// units of the lowest, over the traced passes, of the unit's self time
	// under that span name.
	totals := totalsByKey(rec.spans, tracedPasses)
	selfSecs := func(name string) float64 {
		var sum float64
		for _, u := range rs.units {
			var xs []float64
			for _, t := range totals {
				xs = append(xs, float64(t[spanKey{u.name, name}].SelfNS)/1e9)
			}
			sum += lowest(xs)
		}
		return sum
	}
	spanCount := func(name string) float64 {
		var n int
		for _, u := range rs.units {
			n += totals[0][spanKey{u.name, name}].Count
		}
		return float64(n)
	}
	m["mutator.step_self_cpu_s"] = selfSecs(spanStep)
	if allocs := m["mutator.allocs"]; allocs > 0 {
		m["mutator.ns_per_alloc"] = m["mutator.step_self_cpu_s"] * 1e9 / allocs
	}
	m["core.evict_notice_cpu_s"] = selfSecs(spanEvictNotice)
	m["core.evict_notices"] = spanCount(spanEvictNotice)
	m["core.reload_notice_cpu_s"] = selfSecs(spanReloadNotice)
	m["core.reload_notices"] = spanCount(spanReloadNotice)
	var gcSecs float64
	for phase, name := range phaseMetrics {
		m[name] = selfSecs(phaseSpan(phase))
		gcSecs += m[name]
	}
	m["sim.run_overhead_ms"] = (selfSecs(spanJob) + selfSecs(spanTeardown)) * 1e3

	// Unit-derived host time, from the reference passes.
	refCPU, refWall := column(ref, cpuOf), column(ref, wallOf)
	for u, unit := range rs.units {
		if name, ok := unitMetrics[unit.name]; ok {
			m[name] = lowest(refCPU[u])
		}
		if unit.name == parallelUnit {
			m["runner.parallel_efficiency"] = lowest(refCPU[u]) / (lowest(refWall[u]) * float64(in.workers))
			m["runner.longest_job_share"] = median(longestShare)
		}
	}
	refTotal := sumUnits(refCPU, lowest)
	tracedTotal := sumUnits(column(traced, cpuOf), lowest)
	m["bench.trace_overhead_ratio"] = tracedTotal / refTotal
	m["noise.median_over_lowest"] = sumUnits(refCPU, median) / refTotal

	if err := runProbes(m, in.seed); err != nil {
		return nil, nil, err
	}

	share := func(secs float64) float64 { return 100 * secs / tracedTotal }
	diag := []string{
		fmt.Sprintf("trace: %s (%d spans, %d traced + %d reference passes)", tracePath, len(rec.spans), tracedPasses, tracedPasses),
		fmt.Sprintf("traced CPU of one pass (sum of unit lowest) = %.4f s, reference %.4f s", tracedTotal, refTotal),
		fmt.Sprintf("share of traced CPU: mutator.step %.1f%%, gc phases %.1f%%, core.evict_notice %.1f%%, core.reload_notice %.1f%%",
			share(m["mutator.step_self_cpu_s"]), share(gcSecs), share(m["core.evict_notice_cpu_s"]), share(m["core.reload_notice_cpu_s"])),
	}
	return m, diag, nil
}

// phaseMetrics names the per-layer metric each collector phase feeds.
var phaseMetrics = map[trace.Phase]string{
	trace.PhasePauseNursery:  "gc.pause_nursery_cpu_s",
	trace.PhasePauseFull:     "gc.pause_full_cpu_s",
	trace.PhasePauseCompact:  "gc.pause_compact_cpu_s",
	trace.PhaseNurseryScan:   "gc.nursery_scan_cpu_s",
	trace.PhaseMark:          "gc.mark_cpu_s",
	trace.PhaseSweep:         "gc.sweep_cpu_s",
	trace.PhaseCompactSelect: "gc.compact_select_cpu_s",
	trace.PhaseCheneyForward: "gc.cheney_forward_cpu_s",
	trace.PhaseFailSafe:      "gc.failsafe_cpu_s",
	trace.PhaseRootScan:      "gc.root_scan_cpu_s",
}

// unitMetrics names the per-layer metric that carries a unit's own lowest
// CPU, so a regression in a workload's total names the unit behind it.
var unitMetrics = map[string]string{
	string(sim.BC):        "collectors.BC_cpu_s",
	string(sim.GenMS):     "collectors.GenMS_cpu_s",
	string(sim.GenCopy):   "collectors.GenCopy_cpu_s",
	string(sim.CopyMS):    "collectors.CopyMS_cpu_s",
	string(sim.MarkSweep): "collectors.MarkSweep_cpu_s",
	string(sim.SemiSpace): "collectors.SemiSpace_cpu_s",
	"replay":              "workload.replay_cpu_s",
	"fleet8-coop-bal":     "sim.fleet8_cpu_s",
	"fleet16-lru":         "sim.fleet16_cpu_s",
}

// zeroFill gives every declared metric the workload did not produce the
// value 0, so each traced run prints the whole declared set.
func zeroFill(decls []metricDecl, m map[string]float64) {
	for _, d := range decls {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = 0
		}
	}
}
