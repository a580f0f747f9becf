package telemetry

import (
	"encoding/json"
	"net/http/httptest"
	"testing"

	"bookmarkgc/internal/collectors"
	"bookmarkgc/internal/gc"
	"bookmarkgc/internal/trace"
	"bookmarkgc/internal/vmm"
)

func TestSamplerStopsAtRunEnd(t *testing.T) {
	// A finished run's sampler must not re-arm: in a fleet, a retired
	// tenant's tick would otherwise fire every interval until the last
	// tenant finished.
	clock := vmm.NewClock()
	c := New(Config{})
	c.clock = clock
	clock.Schedule(clock.Now(), c.tick) // armed, as Attach arms it
	c.RunEnded(nil)
	for i := 0; i < 10; i++ {
		clock.Advance(c.cfg.SampleEvery)
		if p := clock.Pending(); len(p) != 0 {
			t.Fatalf("interval %d after the run ended: sampler armed at %v", i, p)
		}
	}
	if n := c.series.Len(); n != 0 {
		t.Errorf("%d samples taken after the run ended", n)
	}
}

// attached returns a collector attached to an idle MarkSweep run, and
// the clock whose every Advance by SampleEvery fires one sample.
func attached() (*Collector, *vmm.Clock) {
	clock := vmm.NewClock()
	v := vmm.New(clock, 16<<20, vmm.DefaultCosts())
	env := gc.NewEnv(v, "t", 4<<20)
	c := New(Config{})
	c.Attach(v, env, collectors.NewMarkSweep(env), trace.NewCounters())
	return c, clock
}

func TestSamplerTickDoesNotAllocate(t *testing.T) {
	// With the series grown, a tick reads bookkeeping, appends bytes the
	// columns already have room for and re-arms with the bound tickFn.
	c, clock := attached()
	ticks := func() {
		s := &c.series
		for i := range s.cols {
			s.cols[i] = s.cols[i][:0]
		}
		*s = Series{cols: s.cols, marks: s.marks[:0]}
		for i := 0; i < 10000; i++ {
			clock.Advance(c.cfg.SampleEvery)
		}
	}
	if allocs := testing.AllocsPerRun(1, ticks); allocs != 0 {
		t.Errorf("10000 ticks into a grown series allocated %v times", allocs)
	}
	if n := c.series.Len(); n != 10000 {
		t.Errorf("%d samples, want 10000", n)
	}
}

func TestSeriesEndpointIsNotTorn(t *testing.T) {
	// /api/series reads every column under one lock: polled while the
	// sampler ticks, each column has exactly len entries. Each poll runs
	// beside a burst of ticks on another goroutine.
	c, clock := attached()
	mux := NewMux(ServerOptions{Telemetry: c})
	const polls, burst = 40, 150
	every := c.cfg.SampleEvery
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
		if len(got.Columns) != NumColumns {
			t.Fatalf("poll %d: %d columns, want %d", p, len(got.Columns), NumColumns)
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
