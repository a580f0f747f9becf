// Command benchcheck gates the performance trajectory recorded in
// BENCH_experiments.json files (written by experiments -bench-out).
// It runs in one of three modes:
//
//	-mode jobs     pair the most recent sequential (-jobs 1) record with
//	               the most recent parallel one for the same (run, scale,
//	               seed) and fail when the wall-time speedup falls short
//	               of -min-speedup
//	-mode mark     same pairing over -mark-workers instead of -jobs: the
//	               most recent -mark-workers 1 record vs the most recent
//	               -mark-workers >1 record at the same (run, scale, seed,
//	               jobs), gated by -min-speedup
//	-mode regress  compare the most recent record in -file against the
//	               most recent comparable record in -baseline and fail
//	               when wall time regressed by more than -max-regress
//
// Speedup gates only fire when the recording machine actually had the
// cores to deliver the parallelism, so trajectories recorded on small
// machines stay honest without failing the gate. Records contaminated by
// a warm persistent cache (disk hits make wall time meaningless) are
// never used for speedup pairing; within-sweep memo hits are
// deterministic and fine.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

type record struct {
	Schema      string  `json:"schema"`
	Scale       float64 `json:"scale"`
	Seed        int64   `json:"seed"`
	Jobs        int     `json:"jobs"`
	MarkWorkers int     `json:"mark_workers"`
	Cores       int     `json:"cores"`
	Run         string  `json:"run"`
	TotalSecs   float64 `json:"total_wall_secs"`
	DiskHits    int     `json:"disk_hits"`
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchcheck: "+format+"\n", args...)
	os.Exit(2)
}

func load(path string) []record {
	b, err := os.ReadFile(path)
	if err != nil {
		fatal("%v", err)
	}
	var recs []record
	if err := json.Unmarshal(b, &recs); err != nil {
		fatal("%s: %v", path, err)
	}
	if len(recs) == 0 {
		fatal("%s holds no records", path)
	}
	return recs
}

func main() {
	var (
		file     = flag.String("file", "BENCH_experiments.json", "trajectory file to check")
		mode     = flag.String("mode", "jobs", "gate to apply: jobs, mark, or regress")
		min      = flag.Float64("min-speedup", 2.0, "required wall-time ratio for the jobs/mark speedup gates")
		baseline = flag.String("baseline", "", "baseline trajectory file for -mode regress")
		maxReg   = flag.Float64("max-regress", 0.15, "tolerated fractional wall-time regression for -mode regress")
	)
	flag.Parse()

	switch *mode {
	case "jobs":
		checkSpeedup(load(*file), *min, func(r *record) int { return r.Jobs }, "-jobs")
	case "mark":
		checkSpeedup(load(*file), *min, func(r *record) int { return r.MarkWorkers }, "-mark-workers")
	case "regress":
		if *baseline == "" {
			fatal("-mode regress needs -baseline")
		}
		checkRegression(load(*file), load(*baseline), *maxReg)
	default:
		fatal("unknown -mode %q (modes: jobs, mark, regress)", *mode)
	}
}

// checkSpeedup pairs the most recent degree-1 record with the most recent
// degree->1 record along the axis extracted by degree (the -jobs or
// -mark-workers value) and enforces the wall-time ratio. Records whose
// wall time was distorted by a warm persistent cache are ignored: a
// disk-served job costs no simulation time, so its record says nothing
// about parallel speedup.
func checkSpeedup(recs []record, min float64, degree func(*record) int, axis string) {
	var seq, par *record
	for i := range recs {
		r := &recs[i]
		if r.DiskHits > 0 {
			continue
		}
		switch {
		case degree(r) == 1:
			seq = r
		case degree(r) > 1:
			par = r
		}
	}
	if seq == nil || par == nil {
		fatal("need one cache-clean %s 1 record and one %s >1 record (records with disk_hits > 0 are skipped)", axis, axis)
	}
	// Comparable means same workload and same degree along the axis NOT
	// being swept — otherwise the ratio mixes two effects.
	if seq.Run != par.Run || seq.Scale != par.Scale || seq.Seed != par.Seed ||
		(axis == "-jobs" && seq.MarkWorkers != par.MarkWorkers) ||
		(axis == "-mark-workers" && seq.Jobs != par.Jobs) {
		fatal("records are not comparable: %+v vs %+v", *seq, *par)
	}
	if par.TotalSecs <= 0 {
		fatal("parallel record has no wall time")
	}
	speedup := seq.TotalSecs / par.TotalSecs
	fmt.Printf("benchcheck: %s scale=%g: %.1fs at %s 1 -> %.1fs at %s %d (%d cores): %.2fx\n",
		seq.Run, seq.Scale, seq.TotalSecs, axis, par.TotalSecs, axis, degree(par), par.Cores, speedup)
	if par.Cores < 2 || par.Cores < degree(par) {
		fmt.Printf("benchcheck: machine had %d cores for %s %d; speedup gate skipped\n",
			par.Cores, axis, degree(par))
		return
	}
	if speedup < min {
		fmt.Fprintf(os.Stderr, "benchcheck: speedup %.2fx below required %.2fx\n", speedup, min)
		os.Exit(1)
	}
}

// checkRegression compares the most recent candidate record against the
// most recent baseline record with the same (run, scale, seed, jobs) and
// fails when wall time grew by more than maxReg. Cache-contaminated
// candidates are rejected outright — a warm cache would hide any
// regression — while a contaminated baseline only loosens the gate, so
// the freshest comparable baseline wins regardless.
func checkRegression(cand, base []record, maxReg float64) {
	c := &cand[len(cand)-1]
	if c.DiskHits > 0 {
		fatal("candidate record was served %d jobs from a warm cache; rerun with the cache disabled", c.DiskHits)
	}
	var b *record
	for i := range base {
		r := &base[i]
		if r.Run == c.Run && r.Scale == c.Scale && r.Seed == c.Seed && r.Jobs == c.Jobs {
			b = r
		}
	}
	if b == nil {
		fatal("baseline has no record matching run=%s scale=%g seed=%d jobs=%d",
			c.Run, c.Scale, c.Seed, c.Jobs)
	}
	if b.TotalSecs <= 0 {
		fatal("baseline record has no wall time")
	}
	ratio := c.TotalSecs/b.TotalSecs - 1
	fmt.Printf("benchcheck: %s scale=%g jobs=%d: baseline %.1fs -> %.1fs (%+.1f%%)\n",
		c.Run, c.Scale, c.Jobs, b.TotalSecs, c.TotalSecs, 100*ratio)
	if ratio > maxReg {
		fmt.Fprintf(os.Stderr, "benchcheck: wall time regressed %.1f%%, over the %.0f%% budget\n",
			100*ratio, 100*maxReg)
		os.Exit(1)
	}
}
