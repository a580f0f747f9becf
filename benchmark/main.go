// Command benchmark is the repository's benchmark: one workload per
// invocation, inputs generated from -seed, outputs checked, every
// declared metric printed by name with its unit, and the result repeated
// as one JSON object on the last line of standard output. README.md in
// this directory explains the workloads, the estimator and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"bookmarkgc/internal/gc"
)

// result is the last line of standard output.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]reported `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed every generated input derives from (2 is held out for claims)")
	seconds := fs.Float64("seconds", 0, "measuring time to plan passes for (default: run_seconds of BENCHMARK.json)")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
	aa := fs.String("aa", "", "A/A check: run this workload in two interleaved sets of fresh processes")
	runs := fs.Int("runs", 10, "runs per set for -aa")
	setupOnly := fs.Bool("setup-only", false, "internal: set up, print the set-up time, exit")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	decl, err := loadDeclaration(root)
	if err != nil {
		return fail(err)
	}
	if *seconds <= 0 {
		*seconds = float64(decl.RunSeconds)
	}
	if *aa != "" {
		if _, ok := workloadByName(*aa); !ok {
			return fail(fmt.Errorf("unknown workload %q", *aa))
		}
		if err := runAA(decl, *aa, *runs, *seconds); err != nil {
			return fail(err)
		}
		return 0
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fail(fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", ")))
	}
	if *traced != 0 && *traced != 1 {
		return fail(fmt.Errorf("-trace must be 0 or 1"))
	}

	// Everything the run writes goes under benchmark/out, including what
	// the program itself puts in the system temp directory.
	outDir, err := filepath.Abs(filepath.Join(root, "benchmark", "out"))
	if err != nil {
		return fail(err)
	}
	scratch := filepath.Join(outDir, fmt.Sprintf("tmp-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(scratch)
	if err := os.Setenv("TMPDIR", scratch); err != nil {
		return fail(err)
	}
	// Single-JVM jobs mark on one thread, so sequential units cost the
	// same CPU whatever the host's core count; the fleet asks for two.
	gc.SetDefaultMarkWorkers(1)
	in := inputs{seed: *seed, size: 1, dir: scratch, workers: runtime.NumCPU()}

	if *setupOnly {
		rs := &runState{}
		if err := rs.setup(w, in); err != nil {
			return fail(err)
		}
		if rs.failed > 0 {
			return fail(fmt.Errorf("set-up: %d operations failed: %s", rs.failed, strings.Join(rs.failures, "; ")))
		}
		fmt.Println(float64(sinceStart()) / 1e9)
		return 0
	}

	var values map[string]float64
	var diag []string
	decls := decl.EndToEnd
	rs := &runState{}
	if *traced == 0 {
		// Set-up is measured three times, each in a process of its own
		// because only a fresh process is cold (empty slab pool and Go
		// heap, first-touch pages): a child before this process sets up,
		// this process, and a child after the last timed pass. Spread over
		// the run like that, the three samples seldom share a slow regime;
		// setup_s is the smallest.
		setups := make([]float64, 3)
		if setups[0], err = childSetup(w.name, *seed); err != nil {
			return fail(err)
		}
		own := sinceStart()
		if err := rs.setup(w, in); err != nil {
			return fail(err)
		}
		setups[1] = float64(sinceStart()-own)/1e9 + startupSecs
		if err := rs.crossCheck(w, in); err != nil {
			return fail(err)
		}
		values, diag = rs.endToEnd(passCount(w, *seconds))
		if setups[2], err = childSetup(w.name, *seed); err != nil {
			return fail(err)
		}
		values["setup_s"] = lowest(setups)
		diag = append(diag, fmt.Sprintf("setup_s samples = %.4f", setups))
	} else {
		decls = decl.PerLayer
		if err := rs.setup(w, in); err != nil {
			return fail(err)
		}
		if err := rs.crossCheck(w, in); err != nil {
			return fail(err)
		}
		values, diag, err = rs.perLayer(w, in, outDir)
		if err != nil {
			return fail(err)
		}
		zeroFill(decls, values)
	}
	metrics, err := report(decls, values)
	if err != nil {
		return fail(err)
	}

	fmt.Printf("workload %s seed %d trace %d\n", w.name, *seed, *traced)
	for _, d := range decls {
		fmt.Printf("%-34s %14.6g %s\n", d.Name, metrics[d.Name].Value, d.Unit)
	}
	for _, line := range diag {
		fmt.Println("#", line)
	}
	for _, line := range rs.failures {
		fmt.Println("FAILED:", line)
	}
	fmt.Printf("operations: %d attempted, %d failed\n", rs.attempted, rs.failed)
	line, err := json.Marshal(result{
		Correct: rs.failed == 0, Attempted: rs.attempted, Failed: rs.failed, Metrics: metrics,
	})
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	return 0
}

// startupSecs is the time from process start to main's first statement,
// which the measuring process's own set-up sample must include to match
// what its children report.
var startupSecs = float64(sinceStart()) / 1e9

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// childSetup sets the workload up in a fresh process of this same binary
// and returns the set-up time it reports.
func childSetup(workload string, seed int64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-setup-only", "-workload", workload, "-seed", strconv.FormatInt(seed, 10))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up process: %w", err)
	}
	secs, err := strconv.ParseFloat(strings.TrimSpace(string(stdout)), 64)
	if err != nil {
		return 0, fmt.Errorf("set-up process printed %q: %w", stdout, err)
	}
	return secs, nil
}
