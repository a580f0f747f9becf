package telemetry

import (
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
	c := New(Config{})
	return c, attach(c)
}

// attach attaches c to an idle MarkSweep run of its own and returns the
// run's clock.
func attach(c *Collector) *vmm.Clock {
	clock := vmm.NewClock()
	v := vmm.New(clock, 16<<20, vmm.DefaultCosts())
	env := gc.NewEnv(v, "t", 4<<20)
	c.Attach(v, env, collectors.NewMarkSweep(env), trace.NewCounters())
	return clock
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
