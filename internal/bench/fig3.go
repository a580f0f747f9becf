package bench

import (
	"fmt"

	"bookmarkgc/internal/mutator"
	"bookmarkgc/internal/runner"
	"bookmarkgc/internal/sim"
)

// fig3Heaps are pseudoJBB heap sizes in MB (paper x-axis 60–130 MB).
var fig3Heaps = []int{60, 70, 80, 90, 100, 110, 120, 130}

// fig3Collectors: the paper drops MarkSweep from the pressure graphs
// because its runs "can take hours".
var fig3Collectors = []sim.CollectorKind{
	sim.BC, sim.GenMS, sim.GenCopy, sim.CopyMS, sim.SemiSpace,
}

// fig3Job is one collector on pseudoJBB under steady pressure: physical
// memory comfortably holds the heap; signalmem then pins all but
// availFrac of the heap (plus a small slack for the rest of the
// process).
func fig3Job(o Options, k sim.CollectorKind, prog mutator.Spec, heapMB int, availFrac float64) runner.Job {
	heap := o.bytes(float64(heapMB) * (1 << 20))
	slack := o.bytes(6 << 20)
	avail := uint64(availFrac*float64(heap)) + slack
	phys := heap * 2
	return runner.Job{
		Collector: k,
		Program:   prog,
		HeapBytes: heap,
		PhysBytes: phys,
		Seed:      o.Seed,
		Counters:  o.Counters,
		Pressure:  &sim.Pressure{InitialBytes: phys - avail},
	}
}

// Fig3 reproduces Figure 3: steady memory pressure on pseudoJBB, where
// available memory holds only 40% of the heap (signalmem removes 60% of
// the heap size at the start of the measured iteration). Two reports:
// (a) execution time and (b) mean GC pause, per collector per heap size.
// Paper shape: BC 7–8x faster than GenMS at the largest heaps and less
// than half the time of CopyMS at 130 MB; GenMS's mean pause ~3 s (~30x
// BC's) at 130 MB.
func Fig3(o Options, rn *runner.Runner) []Report { return fig3At(o, rn, "fig3", 0.40) }

// Fig3x is the §5.3.1 stress variant: available memory holds only 30% of
// the heap (70% removed). Paper: CopyMS takes over an hour; BC's time is
// largely unchanged.
func Fig3x(o Options, rn *runner.Runner) []Report { return fig3At(o, rn, "fig3x", 0.30) }

func fig3At(o Options, rn *runner.Runner, id string, availFrac float64) []Report {
	prog := mutator.PseudoJBB().Scale(o.Scale)
	res := grid(rn, fig3Collectors, fig3Heaps, func(k sim.CollectorKind, heapMB int) runner.Job {
		return fig3Job(o, k, prog, heapMB, availFrac)
	})

	exec := Report{
		ID:     id + "a",
		Title:  fmt.Sprintf("steady pressure (available = %.0f%% of heap): execution time, pseudoJBB", availFrac*100),
		Header: append([]string{"collector"}, heapLabels(fig3Heaps)...),
	}
	pause := Report{
		ID:     id + "b",
		Title:  fmt.Sprintf("steady pressure (available = %.0f%% of heap): mean GC pause, pseudoJBB", availFrac*100),
		Header: append([]string{"collector"}, heapLabels(fig3Heaps)...),
	}
	for i, k := range fig3Collectors {
		execRow := []string{string(k)}
		pauseRow := []string{string(k)}
		for hi, heapMB := range fig3Heaps {
			cell := res[i][hi]
			if !cell.OK() {
				execRow = append(execRow, "-")
				pauseRow = append(pauseRow, "-")
				continue
			}
			run := cell.One()
			tl := run.Timeline()
			execRow = append(execRow, secs(run.ElapsedSecs))
			pauseRow = append(pauseRow, ms(tl.AvgPause()))
			if o.Counters && heapMB == fig3Heaps[len(fig3Heaps)-1] {
				exec.Notes = append(exec.Notes,
					counterNote(fmt.Sprintf("%s@%dMB", k, heapMB), cell.Counters))
			}
		}
		exec.Rows = append(exec.Rows, execRow)
		pause.Rows = append(pause.Rows, pauseRow)
	}
	return []Report{exec, pause}
}

func heapLabels(heaps []int) []string {
	out := make([]string, len(heaps))
	for i, h := range heaps {
		out[i] = fmt.Sprintf("%dMB", h)
	}
	return out
}
