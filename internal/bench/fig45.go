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

// dynamic is the shared setup of the dynamic-pressure experiments
// (Figures 4–6 and the ablations): pseudoJBB in the 77 MB heap, and the
// duration of its unpressured BC run, which calibrates the signalmem ramp
// (and anchors Figure 6's BMU windows).
type dynamic struct {
	o    Options
	prog mutator.Spec
	heap uint64
	base time.Duration
}

// newDynamic runs the baseline in a batch of its own, since every other
// job of the family depends on its duration.
func newDynamic(o Options, rn *runner.Runner) dynamic {
	prog := mutator.PseudoJBB().Scale(o.Scale)
	heap := o.bytes(fig45HeapMB * (1 << 20))
	res := rn.RunAll([]runner.Job{{
		Collector: sim.BC,
		Program:   prog,
		HeapBytes: heap,
		PhysBytes: heap * 4,
		Seed:      o.Seed,
	}})[0]
	return dynamic{o, prog, heap, time.Duration(res.One().ElapsedSecs * float64(time.Second))}
}

// job is one collector under the §5.3.2 dynamic-pressure schedule:
// signalmem grabs an initial chunk, then pins more at a steady rate until
// only frac of the heap remains available. The pin rate is scaled so the
// ramp completes within roughly the first third of an unpressured run, as
// in the paper's measured iterations.
func (d dynamic) job(k sim.CollectorKind, frac float64) runner.Job {
	phys := d.heap * 2
	avail := uint64(frac * float64(d.heap))
	return runner.Job{
		Collector: k,
		Program:   d.prog,
		HeapBytes: d.heap,
		PhysBytes: phys,
		Seed:      d.o.Seed,
		Counters:  d.o.Counters,
		Pressure: sim.CalibratedDynamicPressure(
			phys, avail, d.o.bytes(30<<20), d.o.bytes(1<<20), d.base),
	}
}

// Fig4 reproduces Figure 4: mean GC pause time for pseudoJBB as dynamic
// memory pressure increases (available memory shrinks, left to right).
// Paper shape: BC's mean pause stays flat while the others' grow to
// seconds — GenMS's mean pause under the most pressure is ~10 s longer
// than its whole unpressured run.
func Fig4(o Options, rn *runner.Runner) []Report {
	kinds := []sim.CollectorKind{sim.BC, sim.GenMS, sim.GenCopy, sim.CopyMS, sim.SemiSpace}
	d := newDynamic(o, rn)
	res := grid(rn, kinds, fig45Avail, d.job)

	r := Report{
		ID:     "fig4",
		Title:  "dynamic pressure: mean GC pause, pseudoJBB (available memory shrinks left to right)",
		Header: append([]string{"collector"}, availLabels(o)...),
	}
	for i, k := range kinds {
		row := []string{string(k)}
		for _, cell := range res[i] {
			if !cell.OK() {
				row = append(row, "-")
				continue
			}
			tl := cell.One().Timeline()
			row = append(row, ms(tl.AvgPause()))
		}
		r.Rows = append(r.Rows, row)
	}
	return []Report{r, fig4Latency(kinds, res)}
}

// fig4Latency is the tail-latency companion to Figure 4: per-collector
// pause percentiles at the heaviest pressure point, exact over the same
// runs' timelines (res is Figure 4's sweep; no extra jobs). Mean pause
// (Figure 4) hides the tail; the paper's argument is precisely that a
// single faulting full collection costs seconds, which shows up here as
// the gap between p50 and max.
func fig4Latency(kinds []sim.CollectorKind, res [][]*runner.Result) Report {
	last := len(fig45Avail) - 1
	r := Report{
		ID: "fig4lat",
		Title: fmt.Sprintf("dynamic pressure: pause-latency percentiles at %.0fMB available",
			fig45Avail[last]*fig45HeapMB),
		Header: []string{"collector", "pauses", "p50", "p95", "p99", "p99.9", "max"},
	}
	for i, k := range kinds {
		cell := res[i][last]
		if !cell.OK() {
			r.Rows = append(r.Rows, []string{string(k), "-", "-", "-", "-", "-", "-"})
			continue
		}
		tl := cell.One().Timeline()
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
	d := newDynamic(o, rn)
	res := grid(rn, append(append([]sim.CollectorKind{}, kindsA...), kindsB...), fig45Avail, d.job)

	mk := func(id, title string, kinds []sim.CollectorKind, rows [][]*runner.Result) Report {
		r := Report{
			ID:     id,
			Title:  title,
			Header: append([]string{"collector"}, availLabels(o)...),
		}
		for i, k := range kinds {
			row := []string{string(k)}
			for _, cell := range rows[i] {
				if !cell.OK() {
					row = append(row, "-")
					continue
				}
				row = append(row, secs(cell.One().ElapsedSecs))
			}
			r.Rows = append(r.Rows, row)
		}
		return r
	}
	a := mk("fig5a", "dynamic pressure: execution time, pseudoJBB", kindsA, res[:len(kindsA)])
	b := mk("fig5b", "dynamic pressure: execution time, fixed-size (4MB) nurseries", kindsB, res[len(kindsA):])
	return []Report{a, b}
}

func availLabels(o Options) []string {
	out := make([]string, len(fig45Avail))
	for i, f := range fig45Avail {
		out[i] = fmt.Sprintf("%.0fMB", f*fig45HeapMB)
	}
	return out
}
