package bench

import (
	"fmt"

	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/mutator"
	"bookmarkgc/internal/runner"
	"bookmarkgc/internal/sim"
)

// minHeapFactors are the probe points of the minimum-heap search, as
// factors of the paper's per-benchmark minimum.
var minHeapFactors = []float64{0.4, 0.5, 0.625, 0.75, 1.0, 1.5, 2.0}

// table1AllocJob measures a program's allocation volume: one run with
// plenty of room.
func table1AllocJob(o Options, scaled mutator.Spec) runner.Job {
	return runner.Job{
		Collector: sim.GenMS,
		Program:   scaled,
		HeapBytes: scaled.MinHeap * 4,
		PhysBytes: scaled.MinHeap*8 + (64 << 20),
		Seed:      o.Seed,
	}
}

// table1ProbeJob asks whether BC completes the program in a heap of
// f times the paper's minimum.
func table1ProbeJob(o Options, scaled mutator.Spec, f float64) runner.Job {
	heap := mem.RoundUpPage(uint64(f * float64(scaled.MinHeap)))
	return runner.Job{
		Collector: sim.BC,
		Program:   scaled,
		HeapBytes: heap,
		PhysBytes: heap*4 + (64 << 20),
		Seed:      o.Seed,
		Counters:  o.Counters,
	}
}

// Table1 reproduces the paper's Table 1: per benchmark, total bytes
// allocated and minimum heap. The workload generators are parameterized
// by the paper's numbers, so the "paper" columns are their targets; the
// measured columns come from actually running each program — allocation
// volume from a generous-heap run, minimum heap from a shrinking search
// with the bookmarking collector.
func Table1(o Options, rn *runner.Runner) []Report {
	var jobs []runner.Job
	for _, prog := range mutator.Programs {
		scaled := prog.Scale(o.Scale)
		jobs = append(jobs, table1AllocJob(o, scaled))
		for _, f := range minHeapFactors {
			jobs = append(jobs, table1ProbeJob(o, scaled, f))
		}
	}
	rows := chunk(rn.RunAll(jobs), 1+len(minHeapFactors))

	r := Report{
		ID:    "table1",
		Title: "memory usage statistics for the benchmark suite",
		Header: []string{"benchmark", "paper alloc", "measured alloc",
			"paper min heap", "measured min heap (BC)"},
		Notes: []string{
			fmt.Sprintf("measured at scale %.2f, columns rescaled to paper scale", o.Scale),
			"min heap probed at factors of the paper value (coarse search)",
		},
	}
	for i, prog := range mutator.Programs {
		measuredAlloc := float64(rows[i][0].One().AllocatedBytes) / o.Scale
		minHeap := findMinHeap(prog.Scale(o.Scale), rows[i][1:])
		r.Rows = append(r.Rows, []string{
			prog.Name,
			fmt.Sprintf("%d", prog.TotalAlloc),
			fmt.Sprintf("%.0f", measuredAlloc),
			fmt.Sprintf("%d", prog.MinHeap),
			fmt.Sprintf("%.0f", float64(minHeap)/o.Scale),
		})
	}
	return []Report{r}
}

// findMinHeap reads the probe results, aligned with minHeapFactors, in
// ascending-factor order and returns the smallest (scaled) heap at which
// BC completes.
func findMinHeap(prog mutator.Spec, probes []*runner.Result) uint64 {
	for i, f := range minHeapFactors {
		if probes[i].OK() {
			return mem.RoundUpPage(uint64(f * float64(prog.MinHeap)))
		}
	}
	return prog.MinHeap * 2
}
