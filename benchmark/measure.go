package main

import (
	"fmt"
	"runtime"
	"time"
)

// passSample is the host cost of one pass, unit by unit.
type passSample struct {
	unitCPU, unitWall []float64 // seconds, index-aligned with the units
	allocMB           float64   // Go heap bytes allocated during the pass
}

// maxFailureLines bounds how many failure descriptions a run keeps.
const maxFailureLines = 20

// runState carries one benchmark process from set-up to its metrics.
type runState struct {
	units []unit
	first []outcome // the cold pass: what every later pass must reproduce

	attempted, failed int
	failures          []string
}

func (rs *runState) fail(n int, lines ...string) {
	rs.failed += n
	for _, l := range lines {
		if len(rs.failures) < maxFailureLines {
			rs.failures = append(rs.failures, l)
		}
	}
}

// pass executes every unit once, timing each separately, and applies
// the correctness rules to what came back. reference holds the outcomes
// to reproduce (nil on the cold pass, which becomes the reference).
func (rs *runState) pass(units []unit, reference []outcome, tc *traceCtx) (passSample, []outcome) {
	sample := passSample{
		unitCPU:  make([]float64, len(units)),
		unitWall: make([]float64, len(units)),
	}
	outcomes := make([]outcome, len(units))
	checksums := make(map[string]uint64)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	for i, u := range units {
		spanID := -1
		if tc != nil {
			tc.rec.job = u.name
			spanID = tc.rec.begin(spanUnit)
		}
		cpu0, wall0 := processCPU(), time.Now()
		finish := u.run(tc)
		wall, cpu := time.Since(wall0), processCPU()-cpu0
		if tc != nil {
			tc.rec.end(spanUnit)
			tc.rec.spans[spanID].CPUNS = int64(cpu)
		}
		sample.unitWall[i], sample.unitCPU[i] = wall.Seconds(), cpu.Seconds()
		o := finish()
		outcomes[i] = o

		rs.attempted += o.attempted
		failed := len(o.failures)
		lines := o.failures
		if reference != nil && o.fingerprint != reference[i].fingerprint {
			// Nothing this unit produced on this pass can be trusted.
			failed = o.attempted
			lines = append(lines, fmt.Sprintf("%s: simulated results differ from the first pass", u.name))
		}
		for key, sum := range o.checksums {
			if prev, ok := checksums[key]; ok && prev != sum {
				failed = max(failed, 1)
				lines = append(lines, fmt.Sprintf("%s: mutator checksum %#x for %s, another collector saw %#x",
					u.name, sum, key, prev))
			}
			checksums[key] = sum
		}
		rs.fail(min(failed, o.attempted), lines...)
	}
	runtime.ReadMemStats(&ms)
	sample.allocMB = float64(ms.TotalAlloc-alloc0) / (1 << 20)
	return sample, outcomes
}

// setup generates the inputs and runs the cold pass. It is everything a
// run does before its first timed unit.
func (rs *runState) setup(w workload, in inputs) error {
	units, err := w.build(in)
	if err != nil {
		return fmt.Errorf("generating %s inputs: %w", w.name, err)
	}
	rs.units = units
	_, rs.first = rs.pass(units, nil, nil)
	return nil
}

// crossCheck runs the workload's alternative configuration once; it must
// reproduce the cold pass. It is a correctness check, not set-up, and is
// not timed.
func (rs *runState) crossCheck(w workload, in inputs) error {
	if w.crossCheck == nil {
		return nil
	}
	alt, err := w.build(w.crossCheck(in))
	if err != nil {
		return fmt.Errorf("generating %s cross-check inputs: %w", w.name, err)
	}
	rs.pass(alt, rs.first, nil)
	return nil
}

// simTotals sums the simulated stats of a pass.
func simTotals(outcomes []outcome) simStats {
	var t simStats
	for _, o := range outcomes {
		t.add(o.sim)
	}
	return t
}

// column returns samples[u][p]: unit u's cost on pass p.
func column(passes []passSample, pick func(passSample) []float64) [][]float64 {
	if len(passes) == 0 {
		return nil
	}
	out := make([][]float64, len(pick(passes[0])))
	for u := range out {
		for _, p := range passes {
			out[u] = append(out[u], pick(p)[u])
		}
	}
	return out
}

func cpuOf(p passSample) []float64  { return p.unitCPU }
func wallOf(p passSample) []float64 { return p.unitWall }

// passCount turns the measuring time asked for into a pass count that
// is fixed before the run starts.
func passCount(w workload, seconds float64) int {
	n := int(seconds/w.passSeconds + 0.5)
	return min(max(n, minPasses), maxPasses)
}

const (
	// minPasses is the fewest samples the minimum is taken over; below a
	// dozen, a run taken in one slow regime has no undisturbed sample.
	minPasses = 12
	maxPasses = 60
)

// endToEnd runs the timed passes and assembles the end-to-end metrics
// (all but setup_s, which the caller measured).
func (rs *runState) endToEnd(passes int) (map[string]float64, []string) {
	samples := make([]passSample, 0, passes)
	for i := 0; i < passes; i++ {
		s, _ := rs.pass(rs.units, rs.first, nil)
		samples = append(samples, s)
	}
	cpu, wall := column(samples, cpuOf), column(samples, wallOf)
	var allocs []float64
	for _, s := range samples {
		allocs = append(allocs, s.allocMB)
	}
	sim := simTotals(rs.first)
	m := map[string]float64{
		"host_cpu_s":    sumUnits(cpu, lowest),
		"host_wall_s":   sumUnits(wall, lowest),
		"host_alloc_mb": lowest(allocs),
		"sim_elapsed_s": sim.ElapsedSecs,
	}
	rss, err := peakRSSMB()
	if err != nil {
		rs.fail(1, err.Error())
	}
	m["host_peak_rss_mb"] = rss

	p50cpu := sumUnits(cpu, median)
	diag := []string{
		fmt.Sprintf("passes=%d units=%d", passes, len(rs.units)),
		fmt.Sprintf("host_cpu_s per-pass median (diagnostic) = %.4f s", p50cpu),
		fmt.Sprintf("host_wall_s per-pass median (diagnostic) = %.4f s", sumUnits(wall, median)),
		fmt.Sprintf("noise median/lowest = %.3f (above 1.25: mostly a slow regime)", p50cpu/m["host_cpu_s"]),
		fmt.Sprintf("simulated (exact for this seed): %d major faults, %d pauses, mean %.4f ms, total %.4f s",
			sim.MajorFaults, sim.Pauses, sim.pauseMeanMS(), sim.pauseSecs()),
	}
	for u, unit := range rs.units {
		diag = append(diag, fmt.Sprintf("unit %-22s cpu lowest %.4f s  median %.4f s", unit.name, lowest(cpu[u]), median(cpu[u])))
	}
	return m, diag
}
