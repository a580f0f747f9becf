package runner

import (
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/mutator"
	"bookmarkgc/internal/sim"
)

// tinyJob is a sub-second single-process simulation.
func tinyJob(seed int64) Job {
	prog := mutator.PseudoJBB().Scale(0.005)
	heap := mem.RoundUpPage(prog.MinHeap * 2)
	return Job{
		Collector: sim.BC,
		Program:   prog,
		HeapBytes: heap,
		PhysBytes: heap * 4,
		Seed:      seed,
	}
}

func TestJobHashStable(t *testing.T) {
	j := tinyJob(1)
	h1, h2 := j.Hash(), j.Hash()
	if h1 != h2 {
		t.Fatalf("hash not stable: %s vs %s", h1, h2)
	}
	if len(h1) != 64 {
		t.Fatalf("hash %q is not hex sha-256", h1)
	}
}

func TestJobHashSensitivity(t *testing.T) {
	base := tinyJob(1)
	seen := map[string]string{base.Hash(): "base"}
	variants := map[string]Job{}
	j := base
	j.Seed = 2
	variants["seed"] = j
	j = base
	j.Collector = sim.GenMS
	variants["collector"] = j
	j = base
	j.HeapBytes += 4096
	variants["heap"] = j
	j = base
	j.PhysBytes += 4096
	variants["phys"] = j
	j = base
	j.Counters = true
	variants["counters"] = j
	j = base
	j.Pressure = sim.SteadyPressure(base.HeapBytes, 0.5)
	variants["pressure"] = j
	j = base
	j.HeapPolicy = "composed"
	variants["heap-policy"] = j
	for name, v := range variants {
		h := v.Hash()
		if prev, dup := seen[h]; dup {
			t.Fatalf("variant %q collides with %q", name, prev)
		}
		seen[h] = name
	}
}

func TestExecuteTiny(t *testing.T) {
	j := tinyJob(1)
	res := Execute(j)
	if !res.OK() {
		t.Fatalf("tiny job failed: err=%q runs=%d", res.Err, len(res.Runs))
	}
	if res.Hash != j.Hash() {
		t.Fatal("result hash mismatch")
	}
	if len(res.Runs) != 1 {
		t.Fatalf("want 1 run, got %d", len(res.Runs))
	}
	if res.Counters != nil {
		t.Fatal("counters map present without Counters flag")
	}
	run := res.One()
	if run.ElapsedSecs <= 0 || run.AllocatedBytes == 0 {
		t.Fatalf("implausible run: %+v", run)
	}
	tl := run.Timeline()
	if tl.End <= tl.Start {
		t.Fatalf("bad timeline [%v, %v]", tl.Start, tl.End)
	}
}

func TestExecuteCounters(t *testing.T) {
	j := tinyJob(1)
	j.Counters = true
	res := Execute(j)
	if !res.OK() {
		t.Fatalf("job failed: %q", res.Err)
	}
	if res.Counters == nil {
		t.Fatal("Counters flag set but map is nil")
	}
	if len(res.Counters) == 0 {
		t.Fatal("a BC run should count at least one event")
	}
}

func TestCapturePanic(t *testing.T) {
	res := capture("deadbeef", func() *Result { panic("boom") })
	if res.Hash != "deadbeef" {
		t.Fatalf("hash %q", res.Hash)
	}
	if !strings.Contains(res.Err, "panic: boom") {
		t.Fatalf("err %q does not record the panic", res.Err)
	}
	if res.OK() {
		t.Fatal("panicked result reports OK")
	}
	if res.cacheable() {
		t.Fatal("panicked result must not be cacheable")
	}
}

func TestExecuteInvalidConfig(t *testing.T) {
	j := tinyJob(1)
	j.HeapPolicy = "bogus"
	res := Execute(j)
	if res.Err == "" {
		t.Fatal("job with an unknown heap policy must be rejected")
	}
	if res.cacheable() {
		t.Fatal("engine errors must not be cacheable")
	}
}

func TestRunAllDedup(t *testing.T) {
	dup := tinyJob(1)
	jobs := []Job{dup, dup, dup, tinyJob(2), dup}
	rn := New(Options{Workers: 4})
	out := rn.RunAll(jobs)
	if len(out) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(out), len(jobs))
	}
	for i, res := range out {
		if res == nil || !res.OK() {
			t.Fatalf("job %d failed", i)
		}
	}
	if out[0] != out[1] || out[0] != out[2] || out[0] != out[4] {
		t.Fatal("duplicate jobs did not share one result")
	}
	if out[3] == out[0] {
		t.Fatal("distinct jobs shared a result")
	}
	st := rn.Stats()
	if st.Submitted != 5 || st.Executed != 2 {
		t.Fatalf("stats %+v: want 5 submitted, 2 executed", st)
	}
}

func TestRunAllMemo(t *testing.T) {
	rn := New(Options{Workers: 2})
	jobs := []Job{tinyJob(1), tinyJob(2)}
	first := rn.RunAll(jobs)
	second := rn.RunAll(jobs)
	for i := range jobs {
		if first[i] != second[i] {
			t.Fatalf("job %d re-executed instead of memo hit", i)
		}
	}
	st := rn.Stats()
	if st.Executed != 2 || st.MemHits != 2 {
		t.Fatalf("stats %+v: want 2 executed, 2 memo hits", st)
	}
}

// TestSchedulingDeterminism is the engine-level half of the ISSUE's
// determinism guarantee: the measured content of every result is
// identical for 1 worker and 8 workers. (The report-level half lives in
// internal/bench's determinism test.)
func TestSchedulingDeterminism(t *testing.T) {
	var jobs []Job
	for seed := int64(1); seed <= 6; seed++ {
		jobs = append(jobs, tinyJob(seed))
	}
	seq := New(Options{Workers: 1}).RunAll(jobs)
	par := New(Options{Workers: 8}).RunAll(jobs)
	for i := range jobs {
		if seq[i].Hash != par[i].Hash {
			t.Fatalf("job %d: hash mismatch", i)
		}
		if !reflect.DeepEqual(seq[i].Runs, par[i].Runs) {
			t.Fatalf("job %d: runs differ between 1 and 8 workers", i)
		}
		if !reflect.DeepEqual(seq[i].Counters, par[i].Counters) {
			t.Fatalf("job %d: counters differ between 1 and 8 workers", i)
		}
	}
}

func TestTimeout(t *testing.T) {
	rn := New(Options{Workers: 1, Timeout: time.Nanosecond})
	// The job outlasts the timeout by construction: it runs only once
	// RunAll has given up on it, and the test waits for it to finish.
	release, finished := make(chan struct{}), make(chan struct{})
	rn.execute = func(j Job, h Host) *Result {
		defer close(finished)
		<-release
		return ExecuteOn(j, h)
	}
	out := rn.RunAll([]Job{tinyJob(1)})
	close(release)
	<-finished
	res := out[0]
	if !res.TimedOut || res.Err == "" {
		t.Fatalf("expected a timeout, got %+v", res)
	}
	st := rn.Stats()
	if st.Timeouts != 1 || st.Errors != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestFailuresNameTheirJobs: every executed job that failed — a run the
// simulator refused to admit, or a configuration the engine rejected —
// is recorded once with its job, hash and first error line; successes,
// duplicates and memo hits add nothing.
func TestFailuresNameTheirJobs(t *testing.T) {
	unadmitted := tinyJob(4)
	unadmitted.HeapBytes = 0
	rejected := tinyJob(5)
	rejected.HeapPolicy = "bogus"
	rn := New(Options{Workers: 2})
	rn.RunAll([]Job{tinyJob(1), unadmitted, unadmitted, rejected})
	rn.RunAll([]Job{unadmitted})

	got := rn.Failures()
	slices.SortFunc(got, func(a, b Failure) int { return int(a.Job.Seed - b.Job.Seed) })
	if len(got) != 2 {
		t.Fatalf("%d failures recorded, want 2: %+v", len(got), got)
	}
	for i, want := range []struct {
		job Job
		err string
	}{
		{unadmitted, "sim: HeapBytes is 0"},
		{rejected, `runner: unknown heap policy "bogus"`},
	} {
		f := got[i]
		if f.Hash != want.job.Hash() || f.Job.Hash() != f.Hash || !strings.HasPrefix(f.Err, want.err) {
			t.Errorf("failure %d: hash %.12s, job seed %d, err %q; want hash %.12s, seed %d, err %q",
				i, f.Hash, f.Job.Seed, f.Err, want.job.Hash(), want.job.Seed, want.err)
		}
	}
	if d := unadmitted.Describe(); !strings.HasPrefix(d, "BC pseudojbb, heap 0KB") || !strings.HasSuffix(d, "seed 4") {
		t.Errorf("Describe() = %q", d)
	}
	// Identical tenants read as that many JVMs, so fig7's cells stay
	// told apart by collector and machine.
	jvm := sim.TenantSpec{Collector: sim.BC, Program: mutator.PseudoJBB(), HeapBytes: 7 << 20}
	jvms := Job{Fleet: &sim.FleetSpec{Tenants: []sim.TenantSpec{jvm, jvm}, PhysBytes: 12 << 20, Seed: 1}}
	if d, want := jvms.Describe(), "BC pseudojbb, heap 7.0MB, phys 12.0MB, 2 JVMs, seed 1"; d != want {
		t.Errorf("Describe() = %q, want %q", d, want)
	}
}

func TestEngineTelemetry(t *testing.T) {
	rn := New(Options{Workers: 2})
	j := tinyJob(1)
	rn.RunAll([]Job{j, j})
	if got := rn.Stats(); got.Submitted != 2 || got.Executed != 1 || got.Hits() != 0 {
		t.Fatalf("after one batch of a duplicated job: %+v, want 2 submitted, 1 executed, no hits", got)
	}
	rn.RunAll([]Job{j})
	if got := rn.Stats(); got.Submitted != 3 || got.Executed != 1 || got.MemHits != 1 || got.DiskHits != 0 {
		t.Fatalf("after a second batch: %+v, want 3 submitted, 1 executed, 1 memo hit", got)
	}
}

func TestProgress(t *testing.T) {
	var calls, final atomic.Int64
	rn := New(Options{
		Workers: 2,
		OnProgress: func(p Progress) {
			calls.Add(1)
			if p.Done == p.Total {
				final.Add(1)
			}
			if p.Done > p.Total {
				t.Errorf("progress overflow: %d/%d", p.Done, p.Total)
			}
		},
	})
	rn.RunAll([]Job{tinyJob(1), tinyJob(2), tinyJob(1)})
	if calls.Load() == 0 {
		t.Fatal("OnProgress never called")
	}
	if final.Load() == 0 {
		t.Fatal("final progress state never reported")
	}
}

func TestResultHelpers(t *testing.T) {
	var nilRes *Result
	if nilRes.OK() {
		t.Fatal("nil result reports OK")
	}
	empty := &Result{}
	if empty.OK() {
		t.Fatal("empty result reports OK")
	}
	if rd := empty.One(); rd.OK() {
		t.Fatal("One() on an empty result must carry an error")
	}
	failed := &Result{Runs: []RunData{{Err: "out of memory"}}}
	if failed.OK() {
		t.Fatal("failed run reports OK")
	}
	if !failed.cacheable() {
		t.Fatal("a deterministic run failure is cacheable")
	}
}

// TestFirstErr: a failure names the engine error before any run's, and
// only its first line.
func TestFirstErr(t *testing.T) {
	for _, tc := range []struct {
		name string
		res  Result
		want string
	}{
		{"engine", Result{Err: "panic: boom\ngoroutine 1", Runs: []RunData{{Err: "out of memory"}}}, "panic: boom"},
		{"run", Result{Runs: []RunData{{}, {Err: "out of memory\nlive 3MB"}, {Err: "later"}}}, "out of memory"},
		{"none", Result{Runs: []RunData{{}, {}}}, ""},
	} {
		if got := tc.res.FirstErr(); got != tc.want {
			t.Errorf("%s: FirstErr() = %q, want %q", tc.name, got, tc.want)
		}
	}
}
