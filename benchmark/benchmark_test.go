package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"bookmarkgc/internal/gc"
)

func TestMain(m *testing.M) {
	gc.SetDefaultMarkWorkers(1) // as main does
	os.Exit(m.Run())
}

func loadDecl(t *testing.T) *declaration {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	decl, err := loadDeclaration(root)
	if err != nil {
		t.Fatal(err)
	}
	return decl
}

// BENCHMARK.json and the program must name the same workloads, and
// every name must be one the benchmark contract accepts.
func TestDeclarationMatchesProgram(t *testing.T) {
	decl := loadDecl(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	var declared []string
	for _, w := range decl.Workloads {
		declared = append(declared, w.Name)
		if !name.MatchString(w.Name) {
			t.Errorf("workload name %q", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if got, want := strings.Join(workloadNames(), " "), strings.Join(declared, " "); got != want {
		t.Errorf("program runs %q, BENCHMARK.json declares %q", got, want)
	}

	seen := map[string]bool{}
	hasSetup := false
	for _, list := range [][]metricDecl{decl.EndToEnd, decl.PerLayer} {
		for _, d := range list {
			if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
				t.Errorf("metric %q unit %q", d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("metric %s: better = %q", d.Name, d.Better)
			}
			if seen[d.Name] {
				t.Errorf("metric %s declared twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
	for _, d := range decl.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("end_to_end must hold setup_s, in s, lower is better")
	}
	if decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", decl.RunSeconds)
	}
	// Every per-layer metric the program fills from a table is declared.
	for _, metric := range unitMetrics {
		if !seen[metric] {
			t.Errorf("program measures %s, BENCHMARK.json does not declare it", metric)
		}
	}
	for _, metric := range phaseMetrics {
		if !seen[metric] {
			t.Errorf("program measures %s, BENCHMARK.json does not declare it", metric)
		}
	}
}

func TestReportIsExactlyTheDeclaredSet(t *testing.T) {
	decls := []metricDecl{{Name: "a", Unit: "s"}, {Name: "b", Unit: "count"}}
	got, err := report(decls, map[string]float64{"a": 1.5, "b": 2})
	if err != nil || got["a"] != (reported{1.5, "s"}) || got["b"] != (reported{2, "count"}) {
		t.Errorf("report = %v, %v", got, err)
	}
	if _, err := report(decls, map[string]float64{"a": 1}); err == nil {
		t.Error("a declared metric that was not measured must be an error")
	}
	if _, err := report(decls, map[string]float64{"a": 1, "b": 2, "c": 3}); err == nil {
		t.Error("a measured metric that is not declared must be an error")
	}
}

// fakeUnit reports canned outcomes, one per execution.
func fakeUnit(name string, outcomes ...outcome) unit {
	i := 0
	return unit{name: name, run: func(*traceCtx) func() outcome {
		o := outcomes[min(i, len(outcomes)-1)]
		i++
		return func() outcome { return o }
	}}
}

// The failure rules: an operation fails on an error, when its simulated
// results differ from the first pass, and when two collectors disagree
// on a program's checksum.
func TestFailureRules(t *testing.T) {
	ok := outcome{attempted: 3, fingerprint: "x", checksums: map[string]uint64{"jbb/1": 7}}

	rs := &runState{}
	units := []unit{fakeUnit("steady", ok), fakeUnit("erring", outcome{attempted: 2, fingerprint: "y", failures: []string{"boom"}})}
	_, first := rs.pass(units, nil, nil)
	if rs.attempted != 5 || rs.failed != 1 {
		t.Errorf("cold pass: %d attempted, %d failed; want 5, 1", rs.attempted, rs.failed)
	}

	// A later pass whose fingerprint drifted loses every operation of the unit.
	rs = &runState{}
	drifted := ok
	drifted.fingerprint = "x'"
	rs.pass([]unit{fakeUnit("drifting", drifted)}, first[:1], nil)
	if rs.attempted != 3 || rs.failed != 3 {
		t.Errorf("drifted pass: %d attempted, %d failed; want 3, 3", rs.attempted, rs.failed)
	}

	// The differential oracle: same program and seed, different checksum.
	rs = &runState{}
	other := outcome{attempted: 1, fingerprint: "z", checksums: map[string]uint64{"jbb/1": 8}}
	rs.pass([]unit{fakeUnit("a", ok), fakeUnit("b", other)}, nil, nil)
	if rs.failed != 1 || len(rs.failures) != 1 || !strings.Contains(rs.failures[0], "checksum") {
		t.Errorf("checksum mismatch: %d failed, %q", rs.failed, rs.failures)
	}

	rs = &runState{}
	rs.pass([]unit{fakeUnit("a", ok), fakeUnit("b", ok)}, []outcome{ok, ok}, nil)
	if rs.failed != 0 {
		t.Errorf("clean pass: %d failed: %q", rs.failed, rs.failures)
	}
}

// smokeSize shrinks every workload to two thirds, the pressure workloads
// to pseudoJBB at scale 0.02: below that its heap no longer fits some
// collector (SemiSpace runs out of memory at 0.015) and operations fail
// for reasons that have nothing to do with the benchmark.
const smokeSize = 2.0 / 3

func smokeInputs(t *testing.T) inputs {
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir) // the program's own temp files stay inside too
	return inputs{seed: 1, size: smokeSize, dir: dir, workers: 2}
}

// Every workload, small: set-up, cross-check and two timed passes with
// no failed operation (which includes bit-equal simulated results on
// every pass), and exactly the declared end-to-end metrics.
func TestSmokeEndToEnd(t *testing.T) {
	decl := loadDecl(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			in := smokeInputs(t)
			rs := &runState{}
			if err := rs.setup(w, in); err != nil {
				t.Fatal(err)
			}
			if err := rs.crossCheck(w, in); err != nil {
				t.Fatal(err)
			}
			values, _ := rs.endToEnd(2)
			values["setup_s"] = 1 // measured by main, around setup
			metrics, err := report(decl.EndToEnd, values)
			if err != nil {
				t.Fatal(err)
			}
			for name, m := range metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v; end-to-end metrics are never 0", name, m.Value)
				}
			}
			if rs.failed != 0 || rs.attempted == 0 {
				t.Errorf("%d of %d operations failed: %q", rs.failed, rs.attempted, rs.failures)
			}
		})
	}
}

// The traced run on the workload with the most layers under it: every
// declared per-layer metric is produced, the trace is well formed, and
// the invariant checkers wired into traced jobs found nothing.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the layer probes")
	}
	decl := loadDecl(t)
	w, _ := workloadByName("bc-pressure")
	in := smokeInputs(t)
	rs := &runState{}
	if err := rs.setup(w, in); err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	values, _, err := rs.perLayer(w, in, out)
	if err != nil {
		t.Fatal(err)
	}
	zeroFill(decl.PerLayer, values)
	if _, err := report(decl.PerLayer, values); err != nil {
		t.Fatal(err)
	}
	if rs.failed != 0 {
		t.Errorf("%d of %d operations failed: %q", rs.failed, rs.attempted, rs.failures)
	}
	for _, name := range []string{"mutator.step_self_cpu_s", "core.evict_notice_cpu_s", "core.evict_notices",
		"gc.mark_cpu_s", "mem.read_ns_per_word", "vmm.fault_ns", "heap.alloc_ns_per_object", "sim.gc_s"} {
		if values[name] <= 0 {
			t.Errorf("%s = %v on bc-pressure", name, values[name])
		}
	}

	data, err := os.ReadFile(out + "/bc-pressure.trace.json")
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	for i, s := range spans {
		if s.Parent >= i || s.EndNS < s.StartNS || s.Name == "" {
			t.Fatalf("span %d malformed: %+v", i, s)
		}
		if p := s.Parent; p >= 0 && (s.StartNS < spans[p].StartNS || s.EndNS > spans[p].EndNS) {
			t.Fatalf("span %d (%s) not inside its parent %d (%s)", i, s.Name, p, spans[p].Name)
		}
	}
}
