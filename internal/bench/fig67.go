package bench

import (
	"fmt"
	"time"

	"bookmarkgc/internal/metrics"
	"bookmarkgc/internal/mutator"
	"bookmarkgc/internal/runner"
	"bookmarkgc/internal/sim"
)

// fig6Windows are the BMU window sizes reported, as multiples of the
// unpressured baseline run time. The paper plots absolute windows (up to
// ~10 minutes); anchoring to the baseline duration gives every collector
// the same absolute windows while staying scale-independent.
var fig6Windows = []float64{0.3, 1, 3, 10, 30, 100, 300}

// Fig6 reproduces Figure 6: bounded mutator utilization under dynamic
// pressure, at a moderate and a severe available-memory level (the paper
// uses 143 MB and 93 MB against a ~130 MB footprint). Paper shape: under
// moderate pressure BC and MarkSweep do well; under severe pressure only
// BC achieves high utilization (~0.9 at a 10-second window) while every
// other collector is near zero there, and MarkSweep needs ~10-minute
// windows for 0.25 utilization.
func Fig6(o Options, rn *runner.Runner) []Report {
	kinds := []sim.CollectorKind{
		sim.BC, sim.BCResizeOnly, sim.GenMS, sim.GenCopy, sim.CopyMS, sim.SemiSpace, sim.MarkSweep,
	}
	fracs := []float64{1.30, 0.90}
	d := newDynamic(o, rn)
	res := grid(rn, fracs, kinds, func(frac float64, k sim.CollectorKind) runner.Job { return d.job(k, frac) })

	mk := func(id string, frac float64, label string, cells []*runner.Result) Report {
		r := Report{
			ID:     id,
			Title:  fmt.Sprintf("BMU curves, %s pressure (available = %.0f%% of heap)", label, frac*100),
			Header: append([]string{"collector"}, windowLabels()...),
			Notes:  []string{"cells: BMU at windows of w times the unpressured run time T"},
		}
		for i, k := range kinds {
			row := []string{string(k)}
			if !cells[i].OK() {
				for range fig6Windows {
					row = append(row, "-")
				}
				r.Rows = append(r.Rows, row)
				continue
			}
			tl := cells[i].One().Timeline()
			for _, wf := range fig6Windows {
				w := time.Duration(wf * float64(d.base))
				row = append(row, fmt.Sprintf("%.3f", tl.BMU(w)))
			}
			r.Rows = append(r.Rows, row)
		}
		return r
	}
	return []Report{
		mk("fig6a", fracs[0], "moderate", res[0]),
		mk("fig6b", fracs[1], "severe", res[1]),
	}
}

func windowLabels() []string {
	out := make([]string, len(fig6Windows))
	for i, w := range fig6Windows {
		out[i] = fmt.Sprintf("w=%gxT", w)
	}
	return out
}

// fig7Avail sweeps total machine memory as fractions of the two JVMs'
// combined heaps.
var fig7Avail = []float64{1.3, 1.1, 0.9, 0.7, 0.55}

// fig7Job is two JVM instances sharing one machine whose memory is frac
// of their combined heaps.
func fig7Job(o Options, k sim.CollectorKind, prog mutator.Spec, heap uint64, frac float64) runner.Job {
	return runner.Job{
		Collector: k,
		Program:   prog,
		HeapBytes: heap,
		PhysBytes: uint64(frac * float64(2*heap)),
		JVMs:      2,
		Seed:      o.Seed,
	}
}

// Fig7 reproduces Figure 7: two JVM instances running pseudoJBB
// simultaneously with 77 MB heaps, sweeping available memory. (a) total
// elapsed time — misleading for the VM-oblivious collectors, whose runs
// paging effectively serializes — and (b) mean GC pause, where BC's
// ~380 ms at the lowest memory is ~7.5x below CopyMS, the next best.
// A partial machine (any instance failed) is a missing point.
func Fig7(o Options, rn *runner.Runner) []Report {
	kinds := []sim.CollectorKind{sim.BC, sim.GenMS, sim.GenCopy, sim.CopyMS, sim.SemiSpace}
	prog := mutator.PseudoJBB().Scale(o.Scale)
	heap := o.bytes(fig45HeapMB * (1 << 20))

	res := grid(rn, kinds, fig7Avail, func(k sim.CollectorKind, frac float64) runner.Job {
		return fig7Job(o, k, prog, heap, frac)
	})

	exec := Report{
		ID:     "fig7a",
		Title:  "two JVMs: total elapsed time, pseudoJBB x2, 77MB heaps",
		Header: append([]string{"collector"}, fig7Labels()...),
	}
	pause := Report{
		ID:     "fig7b",
		Title:  "two JVMs: mean GC pause across both instances",
		Header: append([]string{"collector"}, fig7Labels()...),
	}
	for i, k := range kinds {
		execRow := []string{string(k)}
		pauseRow := []string{string(k)}
		for _, cell := range res[i] {
			if !cell.OK() {
				execRow = append(execRow, "-")
				pauseRow = append(pauseRow, "-")
				continue
			}
			var end float64
			var both metrics.Timeline
			for _, rd := range cell.Runs {
				end = max(end, rd.ElapsedSecs)
				both.Pauses = append(both.Pauses, rd.Timeline().Pauses...)
			}
			execRow = append(execRow, secs(end))
			pauseRow = append(pauseRow, ms(both.AvgPause()))
		}
		exec.Rows = append(exec.Rows, execRow)
		pause.Rows = append(pause.Rows, pauseRow)
	}
	return []Report{exec, pause}
}

func fig7Labels() []string {
	out := make([]string, len(fig7Avail))
	for i, f := range fig7Avail {
		out[i] = fmt.Sprintf("%.0fMB", f*2*fig45HeapMB)
	}
	return out
}
