package bench

import (
	"fmt"

	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/metrics"
	"bookmarkgc/internal/mutator"
	"bookmarkgc/internal/runner"
	"bookmarkgc/internal/sim"
)

// fig2Factors are the relative heap sizes swept (paper x-axis: 1–3.25x
// the per-benchmark minimum heap).
var fig2Factors = []float64{1.25, 1.5, 2.0, 2.5, 3.0}

// fig2Collectors in presentation order.
var fig2Collectors = []sim.CollectorKind{
	sim.BC, sim.GenMS, sim.GenCopy, sim.CopyMS, sim.MarkSweep, sim.SemiSpace,
}

// fig2Job is one collector on one benchmark at relative heap factor f,
// with ample physical memory (no pressure). Shared with Fig2Detail so
// the 2.0x column is computed once.
func fig2Job(o Options, k sim.CollectorKind, scaled mutator.Spec, f float64) runner.Job {
	heap := mem.RoundUpPage(uint64(f * float64(scaled.MinHeap)))
	return runner.Job{
		Collector: k,
		Program:   scaled,
		HeapBytes: heap,
		PhysBytes: heap*4 + (64 << 20),
		Seed:      o.Seed,
		Counters:  o.Counters,
	}
}

// Fig2 reproduces Figure 2: geometric mean of execution time relative to
// BC across all benchmarks, without memory pressure, as a function of
// relative heap size. The paper's shape: BC and GenMS effectively tied at
// large heaps (BC ~0.3% faster), BC ahead at small heaps thanks to
// compaction, GenCopy ~7% behind, MarkSweep ~20% and CopyMS ~29% behind
// at the largest heap.
func Fig2(o Options, rn *runner.Runner) []Report {
	// One row of jobs per (benchmark, factor), one column per collector.
	type point struct {
		scaled mutator.Spec
		f      float64
	}
	var points []point
	for _, prog := range mutator.Programs {
		for _, f := range fig2Factors {
			points = append(points, point{prog.Scale(o.Scale), f})
		}
	}
	res := grid(rn, points, fig2Collectors, func(p point, k sim.CollectorKind) runner.Job {
		return fig2Job(o, k, p.scaled, p.f)
	})

	r := Report{
		ID:     "fig2",
		Title:  "geometric mean execution time relative to BC (no memory pressure)",
		Header: append([]string{"collector"}, factorLabels(fig2Factors)...),
		Notes: []string{
			"cells: geomean over all benchmarks of time(collector)/time(BC); '-' = does not complete",
		},
	}
	// rel[collector][factor] = per-benchmark times relative to BC, which
	// is fig2Collectors[0].
	rel := make([][][]float64, len(fig2Collectors))
	for ki := range rel {
		rel[ki] = make([][]float64, len(fig2Factors))
	}
	for i, row := range res {
		fi, bc := i%len(fig2Factors), row[0]
		if !bc.OK() {
			continue
		}
		for ki, cell := range row {
			if cell.OK() {
				rel[ki][fi] = append(rel[ki][fi], cell.One().ElapsedSecs/bc.One().ElapsedSecs)
			}
		}
	}
	for ki, k := range fig2Collectors {
		row := []string{string(k)}
		for _, c := range rel[ki] {
			if len(c) == 0 {
				row = append(row, "-")
				continue
			}
			suffix := ""
			if len(c) < len(mutator.Programs) {
				suffix = fmt.Sprintf(" (%d/%d)", len(c), len(mutator.Programs))
			}
			row = append(row, fmt.Sprintf("%.3f%s", metrics.Geomean(c), suffix))
		}
		r.Rows = append(r.Rows, row)
	}
	return []Report{r}
}

func factorLabels(fs []float64) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = fmt.Sprintf("%.2fx", f)
	}
	return out
}
