package bench

import (
	"fmt"

	"bookmarkgc/internal/runner"
	"bookmarkgc/internal/sim"
)

// Ablations measures the BC design choices DESIGN.md calls out, under the
// Figure 5 dynamic-pressure scenario at a moderately severe setting:
//
//   - bookmarking itself (BC vs. the resize-only variant, §5.3.2);
//   - aggressive word-at-a-time empty-page discard (§3.4.3);
//   - the pointer-free victim-selection extension (§7);
//   - heap regrowth after transient pressure (§7);
//   - GenMS with an Alonso–Appel heap-sizing advisor (related work, §6):
//     resizing without cooperation, which the paper argues cannot
//     eliminate paging.
func Ablations(o Options, rn *runner.Runner) []Report {
	const availFrac = 0.70
	kinds := []sim.CollectorKind{
		sim.BC, sim.BCResizeOnly, sim.BCNoAggressive, sim.BCPointerFree, sim.BCRegrow,
		sim.GenMS, sim.GenMSAdvisor,
	}
	d := newDynamic(o, rn)
	var jobs []runner.Job
	for _, k := range kinds {
		jobs = append(jobs, d.job(k, availFrac))
	}
	results := rn.RunAll(jobs)

	r := Report{
		ID:     "ablate",
		Title:  "BC variants under dynamic pressure (available = 70% of heap)",
		Header: []string{"variant", "exec time", "mean pause", "GC major faults", "pages bookmarked", "notifications"},
	}
	for i, k := range kinds {
		res := results[i]
		if !res.OK() {
			r.Rows = append(r.Rows, []string{string(k), "-", "-", "-", "-", "-"})
			continue
		}
		run := res.One()
		tl := run.Timeline()
		var gcFaults uint64
		for _, p := range tl.Pauses {
			gcFaults += p.MajorFaults
		}
		r.Rows = append(r.Rows, []string{
			string(k),
			secs(run.ElapsedSecs),
			ms(tl.AvgPause()),
			fmt.Sprintf("%d", gcFaults),
			fmt.Sprintf("%d", run.PagesEvicted),
			fmt.Sprintf("%d", run.Proc.ProtFaults+run.Proc.MajorFaults),
		})
		if o.Counters {
			r.Notes = append(r.Notes, counterNote(string(k), res.Counters))
		}
	}
	return []Report{r}
}
