package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runAA is the A/A check: two interleaved sets of n fresh-process runs
// of this same binary, run i of either set on seed i, compared the way
// the acceptance check compares them. For each end-to-end metric it
// prints both medians, both inter-quartile ranges as a share of their
// median, and whether the spreads and the medians stay within the
// declared bound. Simulated metrics must also match run for run.
func runAA(decl *declaration, workload string, n int, seconds float64) error {
	if n < 2 {
		return fmt.Errorf("-runs must be at least 2")
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	sets := [2]map[string][]float64{{}, {}}
	one := func(set int, seed int64) error {
		cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run (set %c, seed %d): %w", 'A'+set, seed, err)
		}
		lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return fmt.Errorf("run (set %c, seed %d): last line is not a result: %w", 'A'+set, seed, err)
		}
		if !res.Correct {
			return fmt.Errorf("run (set %c, seed %d): %d of %d operations failed", 'A'+set, seed, res.Failed, res.Attempted)
		}
		for name, m := range res.Metrics {
			sets[set][name] = append(sets[set][name], m.Value)
		}
		fmt.Fprintf(os.Stderr, "aa %s: set %c seed %d done\n", workload, 'A'+set, seed)
		return nil
	}
	for i := 0; i < n; i++ {
		// Alternate which set goes first, so neither always runs warm.
		order := [2]int{i % 2, 1 - i%2}
		for _, set := range order {
			if err := one(set, int64(i+1)); err != nil {
				return err
			}
		}
	}

	fmt.Printf("A/A %s: 2 x %d runs, seeds 1..%d\n", workload, n, n)
	fmt.Printf("%-20s %-6s %12s %8s %12s %8s %8s %6s  %s\n",
		"metric", "unit", "median A", "IQR A", "median B", "IQR B", "B vs A", "bound", "verdict")
	allOK := true
	for _, d := range decl.EndToEnd {
		a, b := sets[0][d.Name], sets[1][d.Name]
		q1a, ma, q3a := quartiles(a)
		q1b, mb, q3b := quartiles(b)
		spreadA, spreadB := (q3a-q1a)/ma, (q3b-q1b)/mb
		worse := (mb - ma) / ma
		if d.Better == "higher" {
			worse = -worse
		}
		var problems []string
		// setup_s is exempt from the spread rule, not from the median rule.
		if d.Name != "setup_s" && (spreadA > d.Bound || spreadB > d.Bound) {
			problems = append(problems, "spread over bound")
		}
		if worse > d.Bound || -worse > d.Bound {
			problems = append(problems, "medians differ by more than bound")
		}
		if strings.HasPrefix(d.Name, "sim_") {
			for i := range a {
				if a[i] != b[i] {
					problems = append(problems, fmt.Sprintf("not bit-equal on seed %d", i+1))
					break
				}
			}
		}
		verdict := "ok"
		if len(problems) > 0 {
			verdict = strings.Join(problems, ", ")
			allOK = false
		}
		fmt.Printf("%-20s %-6s %12.6g %7.2f%% %12.6g %7.2f%% %+7.2f%% %5.0f%%  %s\n",
			d.Name, d.Unit, ma, 100*spreadA, mb, 100*spreadB, 100*(mb-ma)/ma, 100*d.Bound, verdict)
	}
	if !allOK {
		return fmt.Errorf("A/A %s: the two sets do not agree within the declared bounds", workload)
	}
	return nil
}
