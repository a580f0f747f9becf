package serve

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bookmarkgc/internal/collectors"
	"bookmarkgc/internal/gc"
	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/mutator"
	"bookmarkgc/internal/sim"
	"bookmarkgc/internal/telemetry"
	"bookmarkgc/internal/trace"
	"bookmarkgc/internal/vmm"
)

func TestHTTPEndpoints(t *testing.T) {
	// A small BC run under enough steady pressure to fault and pause.
	tel := telemetry.New(telemetry.Config{})
	scale := 0.02
	heap := mem.RoundUpPage(uint64(77 * scale * (1 << 20)))
	r := sim.Run(sim.RunConfig{
		Collector: sim.BC,
		Program:   mutator.PseudoJBB().Scale(scale),
		HeapBytes: heap,
		PhysBytes: mem.RoundUpPage(uint64(110 * scale * (1 << 20))),
		Pressure:  sim.SteadyPressure(heap, 0.6),
		Seed:      1,
		Telemetry: tel,
		Counters:  trace.NewCounters(),
	})
	if r.Err != nil {
		t.Fatalf("run: %v", r.Err)
	}
	srv := httptest.NewServer(NewMux(ServerOptions{Telemetry: tel}))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != 200 ||
		!strings.Contains(body, "gcsim_pause_seconds") ||
		!strings.Contains(body, "gcsim_major_faults_total") {
		t.Errorf("/metrics: code %d, body %.200s", code, body)
	}
	if code, body := get("/api/series?tail=5"); code != 200 || !strings.Contains(body, `"heap_used_pages"`) {
		t.Errorf("/api/series: code %d, body %.200s", code, body)
	}
	if code, body := get("/api/summary"); code != 200 || !strings.Contains(body, `"collector":"BC"`) {
		t.Errorf("/api/summary: code %d, body %.200s", code, body)
	}
	code, body := get("/api/pauses?tail=3")
	var pauses []map[string]any
	if err := json.Unmarshal([]byte(body), &pauses); code != 200 || err != nil || len(pauses) != 3 ||
		pauses[2]["start_ns"] != float64(r.Timeline.Pauses[len(r.Timeline.Pauses)-1].Start) {
		t.Errorf("/api/pauses?tail=3: code %d, err %v, body %.200s", code, err, body)
	}
	if code, body := get("/"); code != 200 || !strings.Contains(body, "<html") {
		t.Errorf("dashboard: code %d, body %.80s", code, body)
	}
	if code, body := get("/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/: code %d, body %.80s", code, body)
	}
	if code, _ := get("/api/progress"); code != 404 {
		t.Errorf("/api/progress without a Progress hook: code %d, want 404", code)
	}
}

func TestProgressOnlyServer(t *testing.T) {
	// experiments serves sweep progress with no collector: the telemetry
	// endpoints answer 404, and /api/pauses of an empty collector is [].
	mux := NewMux(ServerOptions{Progress: func() interface{} { return map[string]int{"done": 3} }})
	for path, want := range map[string]int{"/api/progress": 200, "/metrics": 404, "/api/series": 404,
		"/api/pauses": 404, "/api/summary": 404, "/nope": 404} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != want {
			t.Errorf("%s: code %d, want %d", path, rec.Code, want)
		}
	}
	rec := httptest.NewRecorder()
	NewMux(ServerOptions{Telemetry: telemetry.New(telemetry.Config{})}).
		ServeHTTP(rec, httptest.NewRequest("GET", "/api/pauses", nil))
	if got := rec.Body.String(); got != "[]\n" {
		t.Errorf("/api/pauses with no pauses: %q, want %q", got, "[]\n")
	}
}

func TestSeriesEndpointIsNotTorn(t *testing.T) {
	// /api/series reads every column under one lock: polled while the
	// sampler ticks, each column has exactly len entries. Each poll runs
	// beside a burst of ticks on another goroutine. Every Advance by
	// every fires one sample of an idle MarkSweep run.
	const every = time.Millisecond
	clock := vmm.NewClock()
	v := vmm.New(clock, 16<<20, vmm.DefaultCosts())
	env := gc.NewEnv(v, "t", 4<<20)
	c := telemetry.New(telemetry.Config{SampleEvery: every})
	c.Attach(v, env, collectors.NewMarkSweep(env), trace.NewCounters())
	mux := NewMux(ServerOptions{Telemetry: c})
	const polls, burst = 40, 150
	start, done := make(chan struct{}), make(chan struct{})
	go func() {
		for range start {
			for i := 0; i < burst; i++ {
				clock.Advance(every)
			}
			done <- struct{}{}
		}
	}()
	defer close(start)
	for p := 0; p < polls; p++ {
		start <- struct{}{}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", "/api/series", nil))
		<-done
		var got struct {
			Len     int                `json:"len"`
			Columns map[string][]int64 `json:"columns"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("poll %d: %v", p, err)
		}
		if len(got.Columns) != telemetry.NumColumns {
			t.Fatalf("poll %d: %d columns, want %d", p, len(got.Columns), telemetry.NumColumns)
		}
		for name, vals := range got.Columns {
			if len(vals) != got.Len {
				t.Fatalf("poll %d: column %s has %d entries, len is %d", p, name, len(vals), got.Len)
			}
		}
		if ts := got.Columns["time_ns"]; len(ts) > 0 && ts[len(ts)-1] != int64(len(ts)-1)*int64(every) {
			t.Fatalf("poll %d: newest sample at %dns after %d samples", p, ts[len(ts)-1], len(ts))
		}
	}
}
