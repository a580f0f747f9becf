package main

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/mutator"
	"bookmarkgc/internal/objmodel"
	"bookmarkgc/internal/runner"
	"bookmarkgc/internal/sim"
	"bookmarkgc/internal/trace"
	"bookmarkgc/internal/workload"
)

// gcsim runs the command in-process.
func gcsim(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// mustRun is gcsim for a run that has to succeed; it returns stdout.
func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	code, stdout, stderr := gcsim(args...)
	if code != 0 {
		t.Fatalf("gcsim %v: exit %d\n%s", args, code, stderr)
	}
	return stdout
}

// synthesize writes a synthesized trace to a fresh file, as gctrace gen.
func synthesize(t *testing.T, p workload.SynthParams) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), p.Model+".gctrace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriter(f)
	if err := workload.Synthesize(w, p); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReplayReproducesRecording records pseudojbb under BC as gctrace
// record does (its flag defaults at -scale 0.03) and replays the file:
// under the recording's collector and geometry gcsim prints the
// recording's summary line exactly, and another collector gets through
// the same history.
func TestReplayReproducesRecording(t *testing.T) {
	scale, heapMB, physMB := 0.03, 77.0, 256.0
	path := filepath.Join(t.TempDir(), "j.gctrace")
	prog, _ := mutator.ByName("pseudojbb")
	prog = prog.Scale(scale)
	r, err := sim.RecordTrace(path, sim.RunConfig{
		Collector: sim.BC,
		Program:   prog,
		HeapBytes: mem.RoundUpPage(uint64(heapMB * scale * (1 << 20))),
		PhysBytes: mem.RoundUpPage(uint64(physMB * scale * (1 << 20))),
		Seed:      1, Counters: trace.NewCounters(),
	})
	if err != nil {
		t.Fatal(err)
	}
	recorded := runner.NewRunData(r).Summary(sim.BC, prog.Name) + "\n"
	if got := mustRun(t, "-program", path); got != recorded {
		t.Errorf("BC replay of a BC recording:\n got %s want %s", got, recorded)
	}
	if got := mustRun(t, "-program", path, "-collector", "GenMS"); !strings.HasPrefix(got, "GenMS/pseudojbb: ") {
		t.Errorf("GenMS replay: %s", got)
	}
}

// TestSynthesizedTraceRuns: gen writes a trace with no recorded run
// behind it, so it runs at gcsim's usual geometry, or at the one given.
func TestSynthesizedTraceRuns(t *testing.T) {
	path := synthesize(t, workload.SynthParams{Model: "ramp", Allocs: 2000, Live: 100})
	for _, args := range [][]string{
		{"-program", path},
		{"-program", path, "-scale", "1", "-heap", "8", "-phys", "64"},
	} {
		if out := mustRun(t, args...); !strings.HasPrefix(out, "BC/ramp: ") {
			t.Errorf("gcsim %v: %s", args, out)
		}
	}
}

// TestReplayTakesEveryRunFlag: a trace is a job like any other, so the
// flags that build fleets and calibrate pressure apply to it unchanged.
func TestReplayTakesEveryRunFlag(t *testing.T) {
	path := synthesize(t, workload.SynthParams{Model: "markov", Allocs: 5000, Live: 500})
	geometry := []string{"-program", path, "-scale", "1", "-heap", "8", "-phys", "64"}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-jvms", "2"}, "jvm1: BC/markov: "},
		{[]string{"-avail", "40"}, "BC/markov: "},
		{[]string{"-runs", "2"}, "seed 2: BC/markov: "},
	} {
		args := append(append([]string{}, geometry...), tc.args...)
		if out := mustRun(t, args...); !strings.Contains(out, tc.want) {
			t.Errorf("gcsim %v: no %q in\n%s", args, tc.want, out)
		}
	}
}

// TestCorruptReplayFailsInOneLine: this synthesized ramp trace makes a
// read-modify-write store an integer into a reference array, and the
// run dies on the bad address it later reads. Whatever the message, a
// replay that fails is one line on stderr and exit 2, never a goroutine
// dump.
func TestCorruptReplayFailsInOneLine(t *testing.T) {
	path := synthesize(t, workload.SynthParams{Model: "ramp", Allocs: 100_000, Live: 300, Seed: 2})
	code, _, stderr := gcsim("-program", path, "-collector", "GenMS", "-scale", "1", "-heap", "8", "-phys", "64")
	lines := strings.Split(strings.TrimSuffix(stderr, "\n"), "\n")
	if code != 2 || len(lines) != 1 || !strings.HasPrefix(lines[0], "gcsim: ") || strings.Contains(stderr, "goroutine") {
		t.Errorf("exit %d, stderr %q; want exit 2 and one line starting \"gcsim: \"", code, stderr)
	}
}

// TestReplayRejectsNodeWrite: a hand-made stream whose read-modify-write
// lands on a node's reference slot 0 is a corrupt trace. The replay
// stops there, in one stderr line and the run-failure exit code, instead
// of storing an integer the next collection would trace.
func TestReplayRejectsNodeWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nodewrite.gctrace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriter(f)
	w, err := workload.NewWriter(bw, workload.Meta{Name: "nodewrite", Source: "synth:crafted"})
	if err != nil {
		t.Fatal(err)
	}
	rec := workload.NewRecorder(w)
	res := mutator.Result{Allocations: 1, AllocatedBytes: objmodel.HeaderBytes + 4*mem.WordSize, Checksum: 0x40000}
	rec.Alloc(mutator.AllocNode, 4, true, 2, 0x40000)
	rec.RootAdd(0)
	rec.Work(0, 2, true, 0)
	rec.StepEnd()
	// Churn through a ring of 512 rooted arrays, so objects die old and
	// every collector runs full collections.
	for i := 0; i < 8192; i++ {
		rec.Alloc(mutator.AllocDataArr, 256, false, 0, 0)
		if i < 512 {
			rec.RootAdd(1 + i)
		} else {
			rec.RootSet(1 + i%512)
		}
		rec.StepEnd()
		res.Allocations++
		res.AllocatedBytes += objmodel.HeaderBytes + 256*mem.WordSize
	}
	if err := rec.Close(res); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := gcsim("-program", path, "-scale", "1", "-heap", "8", "-phys", "64")
	lines := strings.Split(strings.TrimSuffix(stderr, "\n"), "\n")
	if code != 2 || len(lines) != 1 || !strings.Contains(stderr, "corrupt trace") || strings.Contains(stderr, "panic") {
		t.Errorf("exit %d, stderr %q; want exit 2 and one corrupt-trace line", code, stderr)
	}
}

// TestProgramNameWinsOverFile: a file named like a Table 1 program does
// not shadow the program.
func TestProgramNameWinsOverFile(t *testing.T) {
	dir := t.TempDir()
	prev, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(prev)
	if err := os.WriteFile("db", []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	if out := mustRun(t, "-program", "db", "-scale", "0.02"); !strings.HasPrefix(out, "BC/db: ") {
		t.Errorf("-program db beside a file named db: %s", out)
	}
	if code, _, stderr := gcsim("-program", "missing.gctrace"); code != 2 || !strings.Contains(stderr, `unknown program "missing.gctrace"`) {
		t.Errorf("a missing trace: exit %d, stderr %q", code, stderr)
	}
}
