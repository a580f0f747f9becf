package telemetry

import (
	"testing"

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
