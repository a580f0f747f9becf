package bench

import (
	"fmt"

	"bookmarkgc/internal/mutator"
	"bookmarkgc/internal/runner"
	"bookmarkgc/internal/sim"
)

// Fig2Detail breaks Figure 2's geometric mean apart: per-benchmark
// execution time relative to BC at a fixed 2x relative heap, without
// memory pressure. The paper aggregates; this view shows where each
// baseline's costs come from (useful when tuning the workload models).
// Its jobs are Fig2's 2.0x column, so running both costs one sweep.
func Fig2Detail(o Options, rn *runner.Runner) []Report {
	const factor = 2.0
	res := grid(rn, mutator.Programs, fig2Collectors, func(prog mutator.Spec, k sim.CollectorKind) runner.Job {
		return fig2Job(o, k, prog.Scale(o.Scale), factor)
	})

	r := Report{
		ID:    "fig2x",
		Title: fmt.Sprintf("per-benchmark execution time relative to BC at %.1fx min heap, no pressure", factor),
		Notes: []string{"cells: time(collector)/time(BC); '-' = does not complete"},
	}
	r.Header = []string{"benchmark"}
	for _, k := range fig2Collectors {
		r.Header = append(r.Header, string(k))
	}
	for i, prog := range mutator.Programs {
		row := []string{prog.Name}
		var bcTime float64
		for ki, k := range fig2Collectors {
			cell := res[i][ki]
			if !cell.OK() {
				row = append(row, "-")
				continue
			}
			if k == sim.BC {
				bcTime = cell.One().ElapsedSecs
				row = append(row, "1.000")
				continue
			}
			row = append(row, fmt.Sprintf("%.3f", cell.One().ElapsedSecs/bcTime))
		}
		r.Rows = append(r.Rows, row)
	}
	return []Report{r}
}
