package bench

import (
	"fmt"
	"time"

	"bookmarkgc/internal/mutator"
	"bookmarkgc/internal/runner"
	"bookmarkgc/internal/sim"
)

// fig45Heap is the pseudoJBB heap for the dynamic-pressure experiments
// (the paper uses 77 MB).
const fig45HeapMB = 77.0

// fig45Avail is the swept available-memory axis as fractions of the heap
// (the paper sweeps absolute MB; pressure begins once available memory
// falls below the process footprint, i.e. fractions near and below 1).
var fig45Avail = []float64{1.6, 1.4, 1.2, 1.0, 0.85, 0.70, 0.55}

// baselineJob is an unpressured BC run used to calibrate the signalmem
// ramp (and as the BMU window anchor in Figure 6).
func baselineJob(o Options, prog mutator.Spec, heap uint64) runner.Job {
	return runner.Job{
		Collector: sim.BC,
		Program:   prog,
		HeapBytes: heap,
		PhysBytes: heap * 4,
		Seed:      o.Seed,
	}
}

// fig45Baseline reads the calibration run's duration (executing it if
// no batch has).
func fig45Baseline(o Options, rn *runner.Runner, prog mutator.Spec, heap uint64) time.Duration {
	res := rn.Result(baselineJob(o, prog, heap))
	return time.Duration(res.One().ElapsedSecs * float64(time.Second))
}

// dynamicJob is one collector under the §5.3.2 dynamic-pressure
// schedule: signalmem grabs an initial chunk, then pins more at a steady
// rate until only avail bytes of the machine remain. The pin rate is
// scaled so the ramp completes within roughly the first third of an
// unpressured run, as in the paper's measured iterations.
func dynamicJob(o Options, k sim.CollectorKind, prog mutator.Spec, heap, avail uint64, baseline time.Duration) runner.Job {
	phys := heap * 2
	return runner.Job{
		Collector: k,
		Program:   prog,
		HeapBytes: heap,
		PhysBytes: phys,
		Seed:      o.Seed,
		Counters:  o.Counters,
		Pressure: sim.CalibratedDynamicPressure(
			phys, avail, o.bytes(30<<20), o.bytes(1<<20), baseline),
	}
}

// Fig4 reproduces Figure 4: mean GC pause time for pseudoJBB as dynamic
// memory pressure increases (available memory shrinks, left to right).
// Paper shape: BC's mean pause stays flat while the others' grow to
// seconds — GenMS's mean pause under the most pressure is ~10 s longer
// than its whole unpressured run.
func Fig4(o Options, rn *runner.Runner) []Report {
	kinds := []sim.CollectorKind{sim.BC, sim.GenMS, sim.GenCopy, sim.CopyMS, sim.SemiSpace}
	prog := mutator.PseudoJBB().Scale(o.Scale)
	heap := o.bytes(fig45HeapMB * (1 << 20))
	rn.RunAll([]runner.Job{baselineJob(o, prog, heap)})
	base := fig45Baseline(o, rn, prog, heap)

	var jobs []runner.Job
	for _, k := range kinds {
		for _, frac := range fig45Avail {
			jobs = append(jobs, dynamicJob(o, k, prog, heap, uint64(frac*float64(heap)), base))
		}
	}
	rn.RunAll(jobs)

	r := Report{
		ID:     "fig4",
		Title:  "dynamic pressure: mean GC pause, pseudoJBB (available memory shrinks left to right)",
		Header: append([]string{"collector"}, availLabels(o)...),
	}
	for _, k := range kinds {
		row := []string{string(k)}
		for _, frac := range fig45Avail {
			res := rn.Result(dynamicJob(o, k, prog, heap, uint64(frac*float64(heap)), base))
			if !res.OK() {
				row = append(row, "-")
				continue
			}
			tl := res.One().Timeline()
			row = append(row, ms(tl.AvgPause()))
		}
		r.Rows = append(r.Rows, row)
	}
	return []Report{r, fig4Latency(o, rn, kinds, prog, heap, base)}
}

// fig4Latency is the tail-latency companion to Figure 4: per-collector
// pause percentiles at the heaviest pressure point, exact over the same
// runs' timelines (no extra jobs). Mean
// pause (Figure 4) hides the tail; the paper's argument is precisely
// that a single faulting full collection costs seconds, which shows up
// here as the gap between p50 and max.
func fig4Latency(o Options, rn *runner.Runner, kinds []sim.CollectorKind, prog mutator.Spec, heap uint64, base time.Duration) Report {
	frac := fig45Avail[len(fig45Avail)-1]
	r := Report{
		ID: "fig4lat",
		Title: fmt.Sprintf("dynamic pressure: pause-latency percentiles at %.0fMB available",
			frac*fig45HeapMB),
		Header: []string{"collector", "pauses", "p50", "p95", "p99", "p99.9", "max"},
	}
	for _, k := range kinds {
		res := rn.Result(dynamicJob(o, k, prog, heap, uint64(frac*float64(heap)), base))
		if !res.OK() {
			r.Rows = append(r.Rows, []string{string(k), "-", "-", "-", "-", "-", "-"})
			continue
		}
		tl := res.One().Timeline()
		r.Rows = append(r.Rows, []string{
			string(k), fmt.Sprint(tl.Count()),
			ms(tl.Percentile(50)), ms(tl.Percentile(95)),
			ms(tl.Percentile(99)), ms(tl.Percentile(99.9)),
			ms(tl.MaxPause()),
		})
	}
	return r
}

// Fig5 reproduces Figure 5: execution time under the same dynamic
// pressure. (a) the main collectors plus the resize-only BC variant —
// paper: BC up to 4x faster than the next best, 41x faster than GenMS,
// and up to 10x faster than resize-only; (b) fixed-size (4 MB) nursery
// variants, which reduce paging but still collapse once their footprint
// exceeds available memory.
func Fig5(o Options, rn *runner.Runner) []Report {
	kindsA := []sim.CollectorKind{sim.BC, sim.BCResizeOnly, sim.GenMS, sim.GenCopy, sim.CopyMS, sim.SemiSpace}
	kindsB := []sim.CollectorKind{sim.BC, sim.GenMSFixed, sim.GenCopyFixed}
	prog := mutator.PseudoJBB().Scale(o.Scale)
	heap := o.bytes(fig45HeapMB * (1 << 20))
	rn.RunAll([]runner.Job{baselineJob(o, prog, heap)})
	base := fig45Baseline(o, rn, prog, heap)

	var jobs []runner.Job
	for _, k := range append(append([]sim.CollectorKind{}, kindsA...), kindsB...) {
		for _, frac := range fig45Avail {
			jobs = append(jobs, dynamicJob(o, k, prog, heap, uint64(frac*float64(heap)), base))
		}
	}
	rn.RunAll(jobs)

	mk := func(id, title string, kinds []sim.CollectorKind) Report {
		r := Report{
			ID:     id,
			Title:  title,
			Header: append([]string{"collector"}, availLabels(o)...),
		}
		for _, k := range kinds {
			row := []string{string(k)}
			for _, frac := range fig45Avail {
				res := rn.Result(dynamicJob(o, k, prog, heap, uint64(frac*float64(heap)), base))
				if !res.OK() {
					row = append(row, "-")
					continue
				}
				row = append(row, secs(res.One().ElapsedSecs))
			}
			r.Rows = append(r.Rows, row)
		}
		return r
	}
	a := mk("fig5a", "dynamic pressure: execution time, pseudoJBB", kindsA)
	b := mk("fig5b", "dynamic pressure: execution time, fixed-size (4MB) nurseries", kindsB)
	return []Report{a, b}
}

func availLabels(o Options) []string {
	out := make([]string, len(fig45Avail))
	for i, f := range fig45Avail {
		out[i] = fmt.Sprintf("%.0fMB", f*fig45HeapMB)
	}
	return out
}
