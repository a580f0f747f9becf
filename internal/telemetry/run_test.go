// Sim-driven tests live in an external package: internal/sim imports
// telemetry, so in-package tests could not import sim back.
package telemetry_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"bookmarkgc/internal/fault"
	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/metrics"
	"bookmarkgc/internal/mutator"
	"bookmarkgc/internal/sim"
	"bookmarkgc/internal/telemetry"
	"bookmarkgc/internal/trace"
)

// pressuredRun is a small BC run under enough steady pressure to fault:
// the shape every telemetry test wants, finished in well under a second.
func pressuredRun(tel *telemetry.Collector, ctrs *trace.Counters, chaos *fault.Config) sim.Result {
	scale := 0.02
	heap := mem.RoundUpPage(uint64(77 * scale * (1 << 20)))
	phys := mem.RoundUpPage(uint64(110 * scale * (1 << 20)))
	return sim.Run(sim.RunConfig{
		Collector: sim.BC,
		Program:   mutator.PseudoJBB().Scale(scale),
		HeapBytes: heap,
		PhysBytes: phys,
		Pressure:  sim.SteadyPressure(heap, 0.6),
		Seed:      1,
		Chaos:     chaos,
		Telemetry: tel,
		Counters:  ctrs,
	})
}

func TestSamplerDeterministic(t *testing.T) {
	// The acceptance bar for the telemetry layer: series bytes are a pure
	// function of the simulated run, so running it twice must produce
	// identical CSV and JSONL output.
	export := func() (csv, jsonl []byte) {
		tel := telemetry.New(telemetry.Config{})
		r := pressuredRun(tel, trace.NewCounters(), nil)
		if r.Err != nil {
			t.Fatalf("run: %v", r.Err)
		}
		var cb, jb bytes.Buffer
		if err := tel.WriteCSV(&cb); err != nil {
			t.Fatal(err)
		}
		if err := tel.WriteJSONL(&jb); err != nil {
			t.Fatal(err)
		}
		return cb.Bytes(), jb.Bytes()
	}
	csv1, jsonl1 := export()
	csv2, jsonl2 := export()
	if !bytes.Equal(csv1, csv2) {
		t.Error("CSV series diverge between two runs")
	}
	if !bytes.Equal(jsonl1, jsonl2) {
		t.Error("JSONL series diverge between two runs")
	}
	if len(bytes.Split(csv1, []byte("\n"))) < 10 {
		t.Fatalf("suspiciously short CSV:\n%s", csv1)
	}
}

func TestTelemetryObservesOnly(t *testing.T) {
	// An instrumented run must be bit-identical to an uninstrumented one:
	// the sampler reads bookkeeping and never advances the clock.
	bare := pressuredRun(nil, nil, nil)
	tel := telemetry.New(telemetry.Config{})
	instr := pressuredRun(tel, trace.NewCounters(), nil)
	if bare.Err != nil || instr.Err != nil {
		t.Fatalf("runs failed: %v / %v", bare.Err, instr.Err)
	}
	if bare.ElapsedSecs != instr.ElapsedSecs {
		t.Errorf("simulated time perturbed: %v vs %v", bare.ElapsedSecs, instr.ElapsedSecs)
	}
	if bare.Mutator.Checksum != instr.Mutator.Checksum {
		t.Errorf("mutator checksum perturbed: %#x vs %#x", bare.Mutator.Checksum, instr.Mutator.Checksum)
	}
	if bare.ProcStats != instr.ProcStats {
		t.Errorf("fault counts perturbed:\n%+v\n%+v", bare.ProcStats, instr.ProcStats)
	}
	if tel.SampleCount() == 0 {
		t.Fatal("sampler took no samples")
	}
}

func TestSampleGridIsArithmetic(t *testing.T) {
	// Samples land on the fixed grid start + k*interval even when the
	// clock jumps whole pauses at a time — the property that makes the
	// series schedule-independent.
	tel := telemetry.New(telemetry.Config{SampleEvery: time.Millisecond})
	if r := pressuredRun(tel, nil, nil); r.Err != nil {
		t.Fatalf("run: %v", r.Err)
	}
	times := tel.ColumnTail(telemetry.ColTimeNS, tel.SampleCount())
	if len(times) < 100 {
		t.Fatalf("only %d samples", len(times))
	}
	for i, ts := range times {
		if ts != times[0]+int64(i)*int64(time.Millisecond) {
			t.Fatalf("sample %d at %dns, want %dns (grid broken)",
				i, ts, times[0]+int64(i)*int64(time.Millisecond))
		}
	}
}

func TestPauseAttributionAccounts(t *testing.T) {
	// Phase self-times are disjoint by construction, so each pause's
	// breakdown must sum exactly to its duration.
	tel := telemetry.New(telemetry.Config{})
	if r := pressuredRun(tel, nil, nil); r.Err != nil {
		t.Fatalf("run: %v", r.Err)
	}
	pauses := tel.Pauses()
	if len(pauses) == 0 {
		t.Fatal("no pauses attributed")
	}
	var sawFaults bool
	for i, p := range pauses {
		var sum time.Duration
		for _, ns := range p.PhaseNS {
			sum += ns
		}
		if sum != p.Dur {
			t.Errorf("pause %d (%s): phase self-times sum to %v, duration is %v",
				i, p.Kind, sum, p.Dur)
		}
		if p.MajorFaults > 0 {
			sawFaults = true
			if p.FaultStall == 0 {
				t.Errorf("pause %d took %d major faults but reports no fault stall",
					i, p.MajorFaults)
			}
		}
	}
	if !sawFaults {
		t.Error("pressured run attributed no in-pause major faults; pressure too weak for the test")
	}
}

func TestFlightDumpOnChaos(t *testing.T) {
	// Under the thrash regime BC is forced into fail-safes; each one must
	// produce a flight bundle explaining what led up to it.
	dir := t.TempDir()
	cfg, ok := fault.ByName("thrash", 1)
	if !ok {
		t.Fatal("unknown regime")
	}
	tel := telemetry.New(telemetry.Config{FlightDir: dir})
	ctrs := trace.NewCounters()
	if r := pressuredRun(tel, ctrs, &cfg); r.Err != nil {
		t.Fatalf("chaos run: %v", r.Err)
	}
	bundles := readBundles(t, dir, "flight-*.json")
	if len(bundles) == 0 {
		t.Fatal("no flight bundles written")
	}
	if int(ctrs.Get(trace.CTelemetryFlightDumps)) != len(bundles) {
		t.Errorf("counter says %d dumps, found %d files",
			ctrs.Get(trace.CTelemetryFlightDumps), len(bundles))
	}
	var reasons []string
	for _, b := range bundles {
		if b.Schema != "gcsim-flight/v1" {
			t.Errorf("%s bundle: schema = %q", b.Reason, b.Schema)
		}
		if b.Collector != "BC" {
			t.Errorf("%s bundle: collector = %q", b.Reason, b.Collector)
		}
		if len(b.Samples["time_ns"]) == 0 {
			t.Errorf("%s bundle has no recent samples", b.Reason)
		}
		if len(b.Events) == 0 {
			t.Errorf("%s bundle has no flight-ring events", b.Reason)
		}
		reasons = append(reasons, b.Reason)
	}
	joined := strings.Join(reasons, ",")
	if !strings.Contains(joined, "failsafe") && !strings.Contains(joined, "chaos-escalation") {
		t.Errorf("no failsafe/chaos-escalation bundle among reasons %q", joined)
	}
}

func TestFlightDumpOnLongPause(t *testing.T) {
	// BC at gcsim's paging point pauses for over the 500 ms threshold
	// again and again: each long pause asks for a bundle, stamped at its
	// end, and the private 16-dump quota caps them all.
	dir := t.TempDir()
	tel := telemetry.New(telemetry.Config{FlightDir: dir})
	r := cliPoint(sim.BC, 40, 60, 0.8, tel)
	if r.Err != nil {
		t.Fatalf("run: %v", r.Err)
	}
	const threshold, maxDumps = 500 * time.Millisecond, 16
	ends := map[int64]time.Duration{}
	var long int
	for _, p := range r.Timeline.Pauses {
		ends[int64(p.Start+p.Dur)] = p.Dur
		if p.Dur >= threshold {
			long++
		}
	}
	if long <= maxDumps {
		t.Fatalf("only %d pauses of %v or more: the run no longer reaches the cap", long, threshold)
	}
	if all := readBundles(t, dir, "flight-*.json"); len(all) != maxDumps || tel.FlightDumps() != maxDumps {
		t.Errorf("%d bundles written, FlightDumps %d, want the cap of %d", len(all), tel.FlightDumps(), maxDumps)
	}
	longs := readBundles(t, dir, "flight-*-long-pause.json")
	if len(longs) == 0 {
		t.Fatal("no long-pause bundles written")
	}
	for _, b := range longs {
		if d, ok := ends[b.SimTimeNS]; !ok || d < threshold {
			t.Errorf("long-pause bundle at %dns: no pause of %v or more ends there", b.SimTimeNS, threshold)
		}
	}
}

// cliPoint runs one of gcsim's golden operating points: -scale 0.03
// -seed 1 with -heap and -phys in paper-scale MB under steady -steal
// pressure, as cmd/gcsim/testdata/cli.golden runs them.
func cliPoint(kind sim.CollectorKind, heapMB, physMB, steal float64, tel *telemetry.Collector) sim.Result {
	const scale = 0.03
	heap := mem.RoundUpPage(uint64(heapMB * scale * (1 << 20)))
	phys := mem.RoundUpPage(uint64(physMB * scale * (1 << 20)))
	return sim.Run(sim.RunConfig{
		Collector: kind,
		Program:   mutator.PseudoJBB().Scale(scale),
		HeapBytes: heap,
		PhysBytes: phys,
		Pressure:  sim.SteadyPressure(heap, steal),
		Seed:      1,
		Telemetry: tel,
		Counters:  trace.NewCounters(),
	})
}

// flightBundle is the part of a flight bundle the tests read back.
type flightBundle struct {
	Schema     string                   `json:"schema"`
	Reason     string                   `json:"reason"`
	Collector  string                   `json:"collector"`
	SimTimeNS  int64                    `json:"sim_time_ns"`
	Samples    map[string][]int64       `json:"samples"`
	Events     []map[string]interface{} `json:"events"`
	Pauses     []map[string]interface{} `json:"pauses"`
	PauseP50NS int64                    `json:"pause_p50_ns"`
	PauseP99NS int64                    `json:"pause_p99_ns"`
	PauseMaxNS int64                    `json:"pause_max_ns"`
}

// readBundles parses every bundle in dir whose name matches pattern.
func readBundles(t *testing.T, dir, pattern string) []flightBundle {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]flightBundle, len(paths))
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &out[i]); err != nil {
			t.Fatalf("%s is not valid JSON: %v", p, err)
		}
	}
	return out
}

func TestPausesAreTheTimeline(t *testing.T) {
	// The collector attributes exactly the pauses gc.Base.Pause puts on
	// the run's timeline — same start, duration, kind and faults, in the
	// same order — including a run that dies out of memory mid-pause.
	thrash, ok := fault.ByName("thrash", 1)
	if !ok {
		t.Fatal("unknown regime")
	}
	for _, tc := range []struct {
		name string
		run  func(*telemetry.Collector) sim.Result
		oom  bool
	}{
		{"BC/pressured", func(tel *telemetry.Collector) sim.Result {
			return pressuredRun(tel, trace.NewCounters(), nil)
		}, false},
		{"BC/thrash", func(tel *telemetry.Collector) sim.Result {
			return pressuredRun(tel, trace.NewCounters(), &thrash)
		}, false},
		{"SemiSpace/oom", func(tel *telemetry.Collector) sim.Result {
			return cliPoint(sim.SemiSpace, 40, 60, 0.8, tel)
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tel := telemetry.New(telemetry.Config{})
			r := tc.run(tel)
			if (r.Err != nil) != tc.oom {
				t.Fatalf("run error %v, want failure %v", r.Err, tc.oom)
			}
			got, want := tel.Pauses(), r.Timeline.Pauses
			if len(got) != len(want) || len(got) == 0 {
				t.Fatalf("telemetry attributed %d pauses, the timeline holds %d", len(got), len(want))
			}
			for i := range got {
				if got[i].Pause != want[i] {
					t.Fatalf("pause %d: telemetry %+v, timeline %+v", i, got[i].Pause, want[i])
				}
			}
		})
	}
}

func TestExportedPercentilesAreExact(t *testing.T) {
	// A sparse tail — a few dozen pauses, one far longer than the rest —
	// is where an approximate quantile goes wrong. The JSONL summaries and
	// /metrics must read the finished run's exact percentiles.
	tel := telemetry.New(telemetry.Config{})
	r := cliPoint(sim.BC, 45, 100, 0.6, tel)
	if r.Err != nil {
		t.Fatalf("run: %v", r.Err)
	}
	tl := r.Timeline
	want := map[string]metrics.Timeline{"all": tl}
	for _, p := range tl.Pauses {
		kt := want[p.Kind.String()]
		kt.Record(p)
		want[p.Kind.String()] = kt
	}
	var jb bytes.Buffer
	if err := tel.WriteJSONL(&jb); err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, line := range strings.Split(strings.TrimSpace(jb.String()), "\n") {
		var rec struct {
			Type  string `json:"type"`
			Kind  string `json:"kind"`
			P99NS int64  `json:"p99_ns"`
			MaxNS int64  `json:"max_ns"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Type != "digest" {
			continue
		}
		seen++
		w := want[rec.Kind]
		if rec.P99NS != int64(w.Percentile(99)) || rec.MaxNS != int64(w.MaxPause()) {
			t.Errorf("JSONL %s: p99 %dns max %dns, timeline p99 %dns max %dns",
				rec.Kind, rec.P99NS, rec.MaxNS, int64(w.Percentile(99)), int64(w.MaxPause()))
		}
	}
	if seen != len(want) {
		t.Errorf("JSONL has %d pause records, want one per kind that paused plus \"all\": %d", seen, len(want))
	}

	var pb bytes.Buffer
	if err := tel.WriteProm(&pb); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []metrics.PauseKind{metrics.PauseNursery, metrics.PauseFull, metrics.PauseCompact} {
		p99 := tl.PercentileKind(kind, 99)
		want := fmt.Sprintf("gcsim_pause_seconds{kind=%q,quantile=\"0.99\"} %s\n",
			kind, strconv.FormatFloat(float64(p99)/1e9, 'g', -1, 64))
		if !strings.Contains(pb.String(), want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}

func TestFlightBundlePercentilesAreExact(t *testing.T) {
	// GenMS at gcsim's paging point dumps a bundle at each long pause;
	// each bundle's tail is the exact one over the pauses before it.
	dir := t.TempDir()
	tel := telemetry.New(telemetry.Config{FlightDir: dir})
	r := cliPoint(sim.GenMS, 40, 60, 0.8, tel)
	if r.Err != nil {
		t.Fatalf("run: %v", r.Err)
	}
	bundles := readBundles(t, dir, "flight-*.json")
	if len(bundles) == 0 {
		t.Fatal("no flight bundles written")
	}
	for _, b := range bundles {
		var before metrics.Timeline
		for _, p := range r.Timeline.Pauses {
			if int64(p.Start+p.Dur) <= b.SimTimeNS {
				before.Record(p)
			}
		}
		if b.PauseP99NS != int64(before.Percentile(99)) || b.PauseP50NS != int64(before.Percentile(50)) ||
			b.PauseMaxNS != int64(before.MaxPause()) {
			t.Errorf("bundle at %dns (%s): p50/p99/max %d/%d/%dns, the %d pauses before it %d/%d/%dns",
				b.SimTimeNS, b.Reason, b.PauseP50NS, b.PauseP99NS, b.PauseMaxNS, before.Count(),
				int64(before.Percentile(50)), int64(before.Percentile(99)), int64(before.MaxPause()))
		}
	}
}

func TestFlightRecorderBundlePercentilesAreExact(t *testing.T) {
	// A fleet tenant's recorder holds only its newest pauses, yet its
	// bundles' percentiles read the collector's timeline: exact over
	// every pause before the dump, as a whole-run collector's are.
	dir := t.TempDir()
	r := cliPoint(sim.GenMS, 40, 60, 0.8, telemetry.NewFlightRecorder(telemetry.Config{FlightDir: dir}))
	if r.Err != nil {
		t.Fatalf("run: %v", r.Err)
	}
	bundles := readBundles(t, dir, "flight-*.json")
	if len(bundles) == 0 {
		t.Fatal("no flight bundles written")
	}
	longer := 0
	for _, b := range bundles {
		var before metrics.Timeline
		for _, p := range r.Timeline.Pauses {
			if int64(p.Start+p.Dur) <= b.SimTimeNS {
				before.Record(p)
			}
		}
		if len(b.Pauses) < before.Count() {
			longer++
		}
		if b.PauseP99NS != int64(before.Percentile(99)) || b.PauseP50NS != int64(before.Percentile(50)) ||
			b.PauseMaxNS != int64(before.MaxPause()) {
			t.Errorf("bundle at %dns (%s): p50/p99/max %d/%d/%dns, the %d pauses before it %d/%d/%dns",
				b.SimTimeNS, b.Reason, b.PauseP50NS, b.PauseP99NS, b.PauseMaxNS, before.Count(),
				int64(before.Percentile(50)), int64(before.Percentile(99)), int64(before.MaxPause()))
		}
	}
	if longer == 0 {
		t.Error("no bundle came after more pauses than it shows")
	}
}
