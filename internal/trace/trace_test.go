package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// fakeClock is a settable TimeSource.
type fakeClock struct{ t time.Duration }

func (f *fakeClock) Now() time.Duration { return f.t }

func TestNames(t *testing.T) {
	for p := Phase(0); int(p) < NumPhases; p++ {
		if p.String() == "" || p.String() == "invalid" {
			t.Errorf("phase %d has no name", p)
		}
	}
	for e := Event(0); int(e) < NumEvents; e++ {
		if e.String() == "" || e.String() == "invalid" {
			t.Errorf("event %d has no name", e)
		}
		if e.Arg(0) == "" {
			t.Errorf("event %s has no first argument name", e)
		}
	}
	for c := Counter(0); int(c) < NumCounters; c++ {
		if c.String() == "" || c.String() == "invalid" {
			t.Errorf("counter %d has no name", c)
		}
	}
	if Phase(200).String() != "invalid" || Event(200).String() != "invalid" {
		t.Error("out-of-range kinds must stringify as invalid")
	}
}

func TestRecorderRecords(t *testing.T) {
	clk := &fakeClock{}
	r := NewRecorder(clk, "proc")
	r.Begin(PhaseMark)
	clk.t = 5 * time.Microsecond
	r.Point(EvPageDiscarded, 42, 0)
	clk.t = 9 * time.Microsecond
	r.End(PhaseMark)
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	recs := r.sh.recs
	if recs[0].Kind != RecBegin || recs[2].Kind != RecEnd {
		t.Fatal("span records out of order")
	}
	if recs[1].Arg1 != 42 || recs[1].TS != 5*time.Microsecond || recs[1].Name() != "page-discarded" {
		t.Fatalf("point record = %+v", recs[1])
	}
	// The recorder's buffer and the telemetry flight ring hold Records
	// by value: one must stay half a cache line.
	if size := unsafe.Sizeof(recs[0]); size != 32 {
		t.Errorf("a Record is %d bytes, want 32", size)
	}
}

func TestThreadsShareBuffer(t *testing.T) {
	r := NewRecorder(&fakeClock{}, "machine")
	t1 := r.Thread("jvm0")
	t2 := r.Thread("jvm1")
	t1.Begin(PhaseMark)
	t2.Begin(PhaseSweep)
	t1.End(PhaseMark)
	t2.End(PhaseSweep)
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if t1.tid == t2.tid || t1.tid == r.tid {
		t.Fatal("thread ids must be distinct")
	}
}

// chromeEvent is the subset of the trace_event schema the tests check.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

type chromeFile struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

func TestWriteChromeWellFormed(t *testing.T) {
	clk := &fakeClock{}
	r := NewRecorder(clk, "test")
	r.Begin(PhasePauseFull)
	clk.t = time.Microsecond
	r.Begin(PhaseMark)
	clk.t = 2 * time.Microsecond
	r.Point(EvPageProcessed, 7, 3)
	clk.t = 3 * time.Microsecond
	r.End(PhaseMark)
	r.End(PhasePauseFull)

	var buf bytes.Buffer
	if err := r.WriteChrome(&buf, "gcsim"); err != nil {
		t.Fatal(err)
	}
	var f chromeFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	var stack []string
	last := -1.0
	for _, ev := range f.TraceEvents {
		switch ev.Ph {
		case "B":
			stack = append(stack, ev.Name)
		case "E":
			if len(stack) == 0 || stack[len(stack)-1] != ev.Name {
				t.Fatalf("unbalanced E event %q (stack %v)", ev.Name, stack)
			}
			stack = stack[:len(stack)-1]
		case "i":
			if ev.Name != "page-processed" || ev.Args["page"] != 7.0 || ev.Args["bookmarked"] != 3.0 {
				t.Fatalf("instant event wrong: %+v", ev)
			}
		}
		if ev.Ph != "M" {
			if ev.Ts < last {
				t.Fatalf("timestamps not monotone: %f after %f", ev.Ts, last)
			}
			last = ev.Ts
		}
	}
	if len(stack) != 0 {
		t.Fatalf("unclosed spans: %v", stack)
	}
}

func TestWriteJSONLWellFormed(t *testing.T) {
	clk := &fakeClock{}
	r := NewRecorder(clk, "test")
	r.Begin(PhaseNurseryScan)
	r.Point(EvHeapShrink, 100, 120)
	r.End(PhaseNurseryScan)
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 { // thread + begin + point + end
		t.Fatalf("got %d lines:\n%s", len(lines), buf.String())
	}
	for _, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("line not valid JSON: %v: %s", err, ln)
		}
		if m["type"] == "" {
			t.Fatalf("line missing type: %s", ln)
		}
	}
}

func TestNopTracer(t *testing.T) {
	var tr Tracer = Nop{}
	tr.Begin(PhaseMark)
	tr.Point(EvPageDiscarded, 1, 2)
	tr.End(PhaseMark)
}

func TestCountersNilSafe(t *testing.T) {
	var c *Counters
	c.Inc(CObjectsBookmarked)
	c.Add(CForwardedBytes, 100)
	c.Observe(HDiscardBatch, 5)
	c.AddVec(VSuperAllocsByClass, 3, 1)
	if c.Get(CObjectsBookmarked) != 0 {
		t.Fatal("nil registry must read zero")
	}
	if c.VecValues(VSuperAllocsByClass) != nil {
		t.Fatal("nil registry must have empty vectors")
	}
	if h := c.Histogram(HDiscardBatch); h.Count != 0 {
		t.Fatal("nil registry must have empty histograms")
	}
	var buf bytes.Buffer
	if err := c.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestCountersAccumulate(t *testing.T) {
	c := NewCounters()
	c.Inc(CPagesDiscarded)
	c.Add(CPagesDiscarded, 4)
	if got := c.Get(CPagesDiscarded); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	c.AddVec(VSuperAllocsByClass, 2, 3)
	c.AddVec(VSuperAllocsByClass, 0, 1)
	if v := c.VecValues(VSuperAllocsByClass); len(v) != 3 || v[2] != 3 || v[0] != 1 {
		t.Fatalf("vec = %v", v)
	}
}

func TestHistogramBuckets(t *testing.T) {
	c := NewCounters()
	for _, v := range []uint64{0, 1, 1, 2, 3, 64} {
		c.Observe(HDiscardBatch, v)
	}
	h := c.Histogram(HDiscardBatch)
	if h.Count != 6 || h.Sum != 71 || h.Max != 64 {
		t.Fatalf("histogram = %+v", h)
	}
	// bits.Len buckets: 0 -> b0, 1 -> b1 (twice), 2..3 -> b2, 64 -> b7.
	if h.Buckets[0] != 1 || h.Buckets[1] != 2 || h.Buckets[2] != 2 || h.Buckets[7] != 1 {
		t.Fatalf("buckets = %v", h.Buckets)
	}
	if got := h.Mean(); got < 11.8 || got > 11.9 {
		t.Fatalf("mean = %v", got)
	}
}

func TestCountersJSONValid(t *testing.T) {
	c := NewCounters()
	c.Add(CForwardedBytes, 1234)
	c.Observe(HPageBookmarks, 9)
	c.AddVec(VSuperAllocsByClass, 1, 2)
	var buf bytes.Buffer
	if err := c.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("counters JSONL not valid JSON: %v\n%s", err, buf.String())
	}
	if m["type"] != "counters" {
		t.Fatalf("type = %v", m["type"])
	}
}
