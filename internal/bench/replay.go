package bench

import (
	"fmt"
	"os"
	"time"

	"bookmarkgc/internal/mutator"
	"bookmarkgc/internal/runner"
	"bookmarkgc/internal/sim"
	"bookmarkgc/internal/trace"
	"bookmarkgc/internal/workload"
)

// replayCollectors are the collectors the shared trace is replayed under.
var replayCollectors = []sim.CollectorKind{sim.BC, sim.GenMS, sim.GenCopy, sim.MarkSweep}

// replaySpec is the program the trace is recorded from: compress, whose
// large-object traffic and pointer stores exercise every event kind the
// trace format carries.
func replaySpec(o Options) mutator.Spec {
	prog, _ := mutator.ByName("compress")
	return prog.Scale(o.Scale)
}

// Replay records one allocation trace and replays it under four
// collectors through the cached runner: a cross-collector comparison
// where every run consumes the identical event stream, so differences
// are attributable to the collector alone — the generator's PRNG cannot
// interact with collection timing. The trace's content hash is each
// job's cache identity, so re-running the experiment (even from another
// process with a different temporary path) hits the result cache.
func Replay(o Options, rn *runner.Runner) []Report {
	f, err := os.CreateTemp("", "bench-replay-*.gctrace")
	if err != nil {
		return []Report{replayError(fmt.Sprintf("creating trace file: %v", err))}
	}
	f.Close()
	defer os.Remove(f.Name())
	return replayVia(f.Name(), o, rn)
}

// replayVia is Replay with the trace recorded to path.
func replayVia(path string, o Options, rn *runner.Runner) []Report {
	scaled := replaySpec(o)
	heap := scaled.MinHeap * 2
	phys := heap*4 + o.bytes(64<<20)

	base, err := sim.RecordTrace(path, sim.RunConfig{
		Collector: sim.BC,
		Program:   scaled, HeapBytes: heap, PhysBytes: phys,
		Seed: o.Seed, Counters: trace.NewCounters(),
	})
	if err != nil {
		return []Report{replayError(fmt.Sprintf("recording trace: %v", err))}
	}
	hash, err := workload.HashFile(path)
	if err != nil {
		return []Report{replayError(fmt.Sprintf("hashing trace: %v", err))}
	}
	ref := &runner.TraceRef{Name: scaled.Name, Hash: hash, Path: path}

	var jobs []runner.Job
	for _, col := range replayCollectors {
		jobs = append(jobs, runner.Job{
			Collector: col,
			Program:   scaled,
			HeapBytes: heap,
			PhysBytes: phys,
			Seed:      o.Seed,
			Trace:     ref,
		})
	}
	results := rn.RunAll(jobs)

	r := Report{
		ID:    "replay",
		Title: "one recorded trace replayed across collectors",
		Header: []string{"collector", "exec", "gcs", "avg pause", "max pause",
			"alloc"},
		Notes: []string{
			fmt.Sprintf("trace: %s seed %d at scale %.2f, %d events, hash %.12s…",
				scaled.Name, o.Seed, o.Scale, base.Counters.Get(trace.CWorkloadEventsRecorded), hash),
			fmt.Sprintf("recorded under BC: exec=%s checksum %#x (replays verify it word-for-word)",
				secs(base.ElapsedSecs), base.Mutator.Checksum),
		},
	}
	for i, col := range replayCollectors {
		res := results[i]
		if !res.OK() {
			r.Rows = append(r.Rows, []string{string(col), "FAILED: " + res.FirstErr(), "-", "-", "-", "-"})
			continue
		}
		rd := res.One()
		tl := rd.Timeline()
		r.Rows = append(r.Rows, []string{
			string(col),
			secs(rd.ElapsedSecs),
			fmt.Sprintf("%d", tl.Count()),
			ms10(tl.AvgPause()),
			ms10(tl.MaxPause()),
			fmt.Sprintf("%d", rd.AllocatedBytes),
		})
	}
	return []Report{r}
}

// replayError wraps a setup failure as a report, keeping the experiment
// interface uniform for the harness.
func replayError(msg string) Report {
	return Report{
		ID:    "replay",
		Title: "one recorded trace replayed across collectors",
		Notes: []string{"error: " + msg},
	}
}

// ms10 formats a pause at 10µs resolution.
func ms10(d time.Duration) string {
	return d.Round(10 * time.Microsecond).String()
}
