package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bookmarkgc/internal/sim"
)

// update rewrites testdata/cli.golden from this build's output. The file
// was first written by a gcsim built from the commit before cmd/gcsim
// became one path (the table below run through that binary), so it is
// the host-only gate for this command: a change that is not meant to move
// simulated results or report bytes must leave it untouched, and -update
// is legitimate only for a row whose output the change deliberately
// moves — say which and why in the commit.
var update = flag.Bool("update", false, "rewrite testdata/cli.golden from this build")

const goldenPath = "testdata/cli.golden"

// base is the geometry every row shares: small enough that the whole
// table is a few seconds of simulation.
const base = "-scale 0.03 -seed 1 "

// The two operating points of the matrix: memory to spare, and a heap
// that pages hard (SemiSpace runs out of memory there, on purpose).
const (
	ample  = "-heap 45 -phys 100 -steal 0.5"
	paging = "-heap 40 -phys 60 -steal 0.8"
)

type cliRow struct{ name, args string }

// cliRows is every invocation whose stdout, stderr, exit code and output
// files are pinned.
func cliRows() []cliRow {
	var rows []cliRow
	for _, k := range []string{
		"BC", "BCResizeOnly", "GenMS", "GenCopy", "CopyMS", "MarkSweep", "SemiSpace",
		"GenMSFixed", "GenCopyFixed", "BC-NoAggressiveDiscard", "BC-PointerFreeVictims",
		"BC-Regrow", "GenMSAdvisor",
	} {
		rows = append(rows,
			cliRow{k + "/ample", base + "-collector " + k + " " + ample},
			cliRow{k + "/paging", base + "-collector " + k + " " + paging})
	}
	for _, r := range []string{"drop", "delay", "duplicate", "reorder", "no-notify", "reload-storm", "thrash"} {
		rows = append(rows, cliRow{"chaos/" + r, base + paging + " -chaos " + r + " -chaos-seed 5"})
	}
	return append(rows,
		cliRow{"avail", base + "-heap 45 -phys 100 -avail 25"},
		cliRow{"avail/oom", base + "-collector SemiSpace -heap 40 -phys 60 -avail 25"},
		cliRow{"jvms", base + "-heap 45 -phys 100 -jvms 2"},
		cliRow{"runs", base + "-program db -heap 45 -phys 100 -steal 0.6 -runs 3"},
		cliRow{"runs/avail", base + "-heap 45 -phys 100 -avail 25 -runs 3 -jobs 2"},
		cliRow{"runs/jvms", base + "-heap 45 -phys 100 -jvms 2 -runs 2"},
		cliRow{"runs/oom", base + "-collector SemiSpace " + paging + " -runs 2"},
		cliRow{"fleet", base + "-fleet mixed4"},
		cliRow{"fleet/overrides", base + "-fleet mixed4 -phys 200 -fleet-policy cooperative -heap-policy membalancer -chaos-seed 3"},
		cliRow{"fleet/flight", base + "-fleet mixed4 -flight-dump-dir fd"},
		cliRow{"heap-policy/membalancer", base + "-heap 60 -phys 100 -steal 0.7 -heap-policy membalancer"},
		cliRow{"heap-policy/composed", base + "-collector GenMS -heap 60 -phys 100 -steal 0.7 -heap-policy composed"},
		cliRow{"trace/chrome", base + paging + " -counters -trace t.json"},
		cliRow{"trace/jsonl", base + paging + " -counters -trace t.jsonl"},
		cliRow{"trace/jvms", base + "-heap 45 -phys 100 -jvms 2 -trace t.json"},
		cliRow{"bmu", base + paging + " -bmu"},
		cliRow{"telemetry/csv", base + "-collector GenMS " + paging + " -telemetry-out s.csv -flight-dump-dir fl -sample-every 50ms"},
		cliRow{"telemetry/jsonl", base + "-heap 45 -phys 100 -steal 0.6 -telemetry-out s.jsonl"},
		cliRow{"telemetry/oom", base + "-collector SemiSpace " + paging + " -sample-every 50ms"},
		cliRow{"unknown-collector", base + "-collector Bogus"},
		cliRow{"help", "-h"},
		cliRow{"list", "-list"},

		// One row per rejection rule: exit 2 and its message.
		cliRow{"reject/undefined-flag", "-bogus"},
		cliRow{"reject/bad-value", "-heap lots"},
		cliRow{"reject/steal-and-avail", "-steal 0.5 -avail 20"},
		cliRow{"reject/steal-range", "-steal 1"},
		cliRow{"reject/avail-negative", "-avail -1"},
		cliRow{"reject/jvms", "-jvms 0"},
		cliRow{"reject/runs", "-runs 0"},
		cliRow{"reject/sample-every", "-sample-every 0s"},
		cliRow{"reject/telemetry-runs", "-telemetry-out s.csv -runs 2"},
		cliRow{"reject/telemetry-jvms", "-sample-every 1ms -jvms 2"},
		cliRow{"reject/runs-bmu", "-runs 2 -bmu"},
		cliRow{"reject/runs-trace", "-runs 2 -trace t.json"},
		cliRow{"reject/runs-counters", "-runs 2 -counters"},
		cliRow{"reject/runs-jvms-pressure", "-runs 2 -jvms 2 -steal 0.5"},
		cliRow{"reject/jvms-pressure", "-jvms 2 -avail 20"},
		cliRow{"reject/scale", "-scale 0"},
		cliRow{"reject/heap", "-heap 0"},
		cliRow{"reject/phys", "-phys -1"},
		cliRow{"reject/heap-policy", "-heap-policy bogus"},
		cliRow{"reject/chaos-regime", "-chaos bogus"},
		cliRow{"reject/chaos-jvms", "-chaos drop -jvms 2"},
		cliRow{"reject/fleet-policy-alone", "-fleet-policy cooperative"},
		cliRow{"reject/fleet-single-run-flag", "-fleet mixed4 -bmu"},
		cliRow{"reject/fleet-jvms", "-fleet mixed4 -jvms 2"},
		cliRow{"reject/fleet-mixed", "-fleet mixed0"},
		cliRow{"reject/fleet-file", "-fleet missing.json"},
		cliRow{"reject/fleet-policy-name", "-fleet mixed4 -fleet-policy bogus"},
		cliRow{"reject/fleet-heap-policy", "-fleet mixed4 -heap-policy bogus"},
		cliRow{"reject/program", "-program bogus"},
		cliRow{"reject/phys-floor", "-phys 1 -scale 0.001"},
		cliRow{"fail/cpuprofile", "-cpuprofile missing/cpu.pprof"},
		cliRow{"fail/trace-path", base + "-trace missing/t.json"},
	)
}

// runIn runs gcsim in a fresh empty directory and renders what came of it:
// exit code, stdout, stderr, and the SHA-256 of every file it left.
func runIn(t *testing.T, args string) string {
	t.Helper()
	dir := t.TempDir()
	prev, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(prev)

	var stdout, stderr bytes.Buffer
	code := run(strings.Fields(args), &stdout, &stderr)

	var b strings.Builder
	fmt.Fprintf(&b, "$ gcsim %s\nexit %d\n", args, code)
	section := func(name, body string) {
		if body != "" {
			fmt.Fprintf(&b, "--- %s\n%s", name, body)
			if !strings.HasSuffix(body, "\n") {
				b.WriteString("\n")
			}
		}
	}
	section("stdout", stdout.String())
	section("stderr", foldUsage(stderr.String()))
	var files strings.Builder
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		fmt.Fprintf(&files, "%x  %s\n", sha256.Sum256(data), filepath.ToSlash(rel))
		return nil
	})
	section("files", files.String())
	return b.String()
}

// foldUsage replaces the flag package's usage dump, which ends stderr
// when present, with the flag names on one line: the full text carries
// the host's CPU count as -jobs' default.
func foldUsage(stderr string) string {
	i := strings.Index(stderr, "Usage of gcsim:\n")
	if i < 0 {
		return stderr
	}
	var names []string
	for _, line := range strings.Split(stderr[i:], "\n") {
		if strings.HasPrefix(line, "  -") {
			names = append(names, strings.Fields(line)[0])
		}
	}
	return stderr[:i] + "<usage: " + strings.Join(names, " ") + ">\n"
}

func TestCLIGolden(t *testing.T) {
	rows := cliRows()
	if *update {
		var b strings.Builder
		for _, r := range rows {
			fmt.Fprintf(&b, "=== %s\n%s", r.name, runIn(t, r.args))
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, sec := range strings.Split("\n"+string(data), "\n=== ")[1:] {
		name, body, _ := strings.Cut(sec, "\n")
		want[name] = strings.TrimSuffix(body, "\n") + "\n"
	}
	if len(want) != len(rows) {
		t.Errorf("%s has %d sections, the table %d rows", goldenPath, len(want), len(rows))
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			if testing.Short() && strings.HasSuffix(r.name, "/paging") && !strings.HasPrefix(r.name, "BC/") && !strings.HasPrefix(r.name, "GenMS/") {
				t.Skip("short: two collectors stand for the paging column")
			}
			if got := runIn(t, r.args); got != want[r.name] {
				t.Errorf("output differs from %s\n--- got\n%s--- want\n%s", goldenPath, got, want[r.name])
			}
		})
	}
}

// TestProfileWrittenOnFailure: the profiles are flushed by a defer in
// run, so a command line that is rejected still leaves them.
func TestProfileWrittenOnFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mem.pprof")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-memprofile", path, "-steal", "2"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2\n%s", code, stderr.String())
	}
	if st, err := os.Stat(path); err != nil || st.Size() == 0 {
		t.Fatalf("no heap profile after a rejected command line: %v", err)
	}
}

// TestFleetSpecFile: a tenant-spec file runs as written, and -seed,
// -chaos-seed override it only when given — checked against the mixedN
// form of the same fleet.
func TestFleetSpecFile(t *testing.T) {
	dir := t.TempDir()
	spec, err := json.Marshal(sim.DefaultFleetSpec(4, 0.03, 7, 9))
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(dir, "tenants.json")
	if err := os.WriteFile(file, spec, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, want := mustRun(t, "-fleet", file), mustRun(t, "-fleet", "mixed4", "-scale", "0.03", "-seed", "7", "-chaos-seed", "9"); got != want {
		t.Errorf("spec file as written:\n%s\nmixed4 with its seeds:\n%s", got, want)
	}
	if got, want := mustRun(t, "-fleet", file, "-seed", "1", "-chaos-seed", "5"), mustRun(t, "-fleet", "mixed4", "-scale", "0.03", "-seed", "1", "-chaos-seed", "5"); got != want {
		t.Errorf("spec file with seeds overridden:\n%s\nmixed4 with those seeds:\n%s", got, want)
	}
}

// TestLateTenantBundleFleet: testdata/late-bundle-fleet.json — the
// benchmark's 8-tenant fleet at scale 0.05 with the cascade detector off,
// so fleet bundles leave the dump quota to the tenants — writes a tenant
// flight bundle past the tenant's 4097th sample, whose series tail a
// tenant's flight recorder reads from a window that has dropped its
// older samples. CI compares these bundles with the base commit's.
func TestLateTenantBundleFleet(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-fleet", "testdata/late-bundle-fleet.json", "-flight-dump-dir", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	bundles, err := filepath.Glob(filepath.Join(dir, "flight-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	late := 0
	for _, path := range bundles {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var b struct {
			Tenant    string             `json:"tenant"`
			SimTimeNS int64              `json:"sim_time_ns"`
			Samples   map[string][]int64 `json:"samples"`
		}
		if err := json.Unmarshal(data, &b); err != nil {
			t.Fatal(err)
		}
		// A tenant samples every millisecond from time 0.
		if ts := b.Samples["time_ns"]; b.Tenant != "" && len(ts) == 256 && ts[0] >= 4096*int64(time.Millisecond) {
			late++
		}
	}
	if late == 0 {
		t.Errorf("none of %d bundles is a tenant's past its 4097th sample", len(bundles))
	}
}

// TestCascadingFleetLeavesTenantBundles: mixed4 at scale 0.03 cascades
// all run long, and its fleet bundles take only the dump quota's fleet
// reserve, so a tenant's long pause still writes its bundle.
func TestCascadingFleetLeavesTenantBundles(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-fleet", "mixed4", "-scale", "0.03", "-seed", "1", "-flight-dump-dir", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	fleet, err := filepath.Glob(filepath.Join(dir, "fleet-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	tenant, err := filepath.Glob(filepath.Join(dir, "flight-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet) == 0 || len(fleet) > 4 || len(tenant) == 0 {
		t.Errorf("%d fleet bundles (want 1 to 4) and %d tenant bundles (want at least 1)", len(fleet), len(tenant))
	}
}
