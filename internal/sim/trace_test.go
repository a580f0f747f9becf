package sim

import (
	"bytes"
	"encoding/json"
	"testing"

	"bookmarkgc/internal/trace"
)

// pressuredBC is a short BC run squeezed hard enough to force the whole
// cooperation protocol: evictions, bookmarking, discards, and reloads.
func pressuredBC(rec *trace.Recorder, reg *trace.Counters) Result {
	return Run(RunConfig{
		Collector: BC,
		Program:   tinyJBB(),
		HeapBytes: 4 << 20,
		PhysBytes: 8 << 20,
		Seed:      1,
		Pressure:  &Pressure{InitialBytes: 5 << 20},
		Trace:     rec,
		Counters:  reg,
	})
}

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

type chromeFile struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

// TestChromeTraceGolden checks the full pipeline: a pressured BC run
// must emit a well-formed Chrome trace — valid JSON, strictly matched
// B/E pairs per thread, monotone timestamps — containing at least one
// pause span, one phase span, and the cooperation point events.
func TestChromeTraceGolden(t *testing.T) {
	rec := trace.NewRecorder(nil, "BC")
	reg := trace.NewCounters()
	res := pressuredBC(rec, reg)
	if res.GCStats.PagesEvicted == 0 {
		t.Fatal("run was not pressured: no pages evicted")
	}

	var buf bytes.Buffer
	if err := rec.WriteChrome(&buf, "gcsim-test"); err != nil {
		t.Fatal(err)
	}
	var f chromeFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(f.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}

	seen := map[string]int{}
	stacks := map[int][]string{}
	lastTs := map[int]float64{}
	for _, e := range f.TraceEvents {
		seen[e.Ph+":"+e.Name]++
		if e.Ph != "B" && e.Ph != "E" && e.Ph != "i" {
			continue
		}
		if ts, ok := lastTs[e.Tid]; ok && e.Ts < ts {
			t.Fatalf("timestamps not monotone on tid %d: %v after %v (%s)", e.Tid, e.Ts, ts, e.Name)
		}
		lastTs[e.Tid] = e.Ts
		switch e.Ph {
		case "B":
			stacks[e.Tid] = append(stacks[e.Tid], e.Name)
		case "E":
			st := stacks[e.Tid]
			if len(st) == 0 {
				t.Fatalf("E %q with empty span stack on tid %d", e.Name, e.Tid)
			}
			if top := st[len(st)-1]; top != e.Name {
				t.Fatalf("E %q does not match open span %q", e.Name, top)
			}
			stacks[e.Tid] = st[:len(st)-1]
		}
	}
	for tid, st := range stacks {
		if len(st) != 0 {
			t.Fatalf("unclosed spans on tid %d: %v", tid, st)
		}
	}

	// The squeezed run must show the pause spans, at least one GC phase
	// span, and the core cooperation point events.
	for _, want := range []string{
		"B:pause:full", "B:mark", "B:sweep",
		"i:eviction-scheduled", "i:page-processed", "i:page-reloaded",
		"i:bookmark-cleared", "i:memory-pinned",
	} {
		if seen[want] == 0 {
			t.Errorf("trace contains no %q event", want)
		}
	}

	// Counters must agree with the trace on processed pages.
	if got, n := reg.Get(trace.CPagesProcessed), seen["i:page-processed"]; got != uint64(n) {
		t.Errorf("counter pages_processed=%d but trace has %d page-processed events", got, n)
	}
}

// TestJSONLTraceWellFormed checks the JSONL exporter end to end: every
// line parses as its own JSON object.
func TestJSONLTraceWellFormed(t *testing.T) {
	rec := trace.NewRecorder(nil, "BC")
	reg := trace.NewCounters()
	pressuredBC(rec, reg)
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) < 2 {
		t.Fatalf("suspiciously short JSONL output: %d lines", len(lines))
	}
	for i, line := range lines {
		var v map[string]any
		if err := json.Unmarshal(line, &v); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", i+1, err)
		}
	}
}

// TestTracingDoesNotPerturbRun is the observability contract: the same
// configuration with and without a recorder must produce identical
// simulated outcomes, and two traced runs must export identical bytes.
func TestTracingDoesNotPerturbRun(t *testing.T) {
	plain := pressuredBC(nil, nil)
	rec := trace.NewRecorder(nil, "BC")
	traced := pressuredBC(rec, trace.NewCounters())

	if plain.ElapsedSecs != traced.ElapsedSecs {
		t.Errorf("tracing changed elapsed time: %v vs %v", plain.ElapsedSecs, traced.ElapsedSecs)
	}
	if plain.ProcStats.MajorFaults != traced.ProcStats.MajorFaults {
		t.Errorf("tracing changed fault count: %d vs %d",
			plain.ProcStats.MajorFaults, traced.ProcStats.MajorFaults)
	}
	if plain.Timeline.Count() != traced.Timeline.Count() {
		t.Errorf("tracing changed pause count: %d vs %d",
			plain.Timeline.Count(), traced.Timeline.Count())
	}
	if plain.GCStats.Bookmarked != traced.GCStats.Bookmarked ||
		plain.GCStats.PagesEvicted != traced.GCStats.PagesEvicted ||
		plain.GCStats.Full != traced.GCStats.Full ||
		plain.GCStats.Nursery != traced.GCStats.Nursery {
		t.Errorf("tracing changed GC stats:\n%+v\nvs\n%+v", plain.GCStats, traced.GCStats)
	}

	rec2 := trace.NewRecorder(nil, "BC")
	pressuredBC(rec2, trace.NewCounters())
	var a, b bytes.Buffer
	if err := rec.WriteChrome(&a, "x"); err != nil {
		t.Fatal(err)
	}
	if err := rec2.WriteChrome(&b, "x"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two identical traced runs exported different traces")
	}
}

// TestTwoJVMsTracing gives each JVM its own trace thread over a shared
// buffer and checks the export names both threads.
func TestTwoJVMsTracing(t *testing.T) {
	rec := trace.NewRecorder(nil, "multi")
	reg := trace.NewCounters()
	twoJVMs(RunConfig{
		Collector: BC,
		Program:   tinyJBB(),
		HeapBytes: 4 << 20,
		PhysBytes: 64 << 20,
		Seed:      1,
		Trace:     rec,
		Counters:  reg,
	})
	var buf bytes.Buffer
	if err := rec.WriteChrome(&buf, "gcsim-test"); err != nil {
		t.Fatal(err)
	}
	var f chromeFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, e := range f.TraceEvents {
		if e.Ph == "M" && e.Name == "thread_name" {
			if n, ok := e.Args["name"].(string); ok {
				names[n] = true
			}
		}
	}
	if !names["BC-0"] || !names["BC-1"] {
		t.Fatalf("expected thread metadata for BC-0 and BC-1, got %v", names)
	}
	if reg.Get(trace.CBumpAllocs) == 0 {
		t.Error("shared counter registry recorded no allocations")
	}
}
