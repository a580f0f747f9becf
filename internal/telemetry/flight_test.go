package telemetry

import (
	"testing"

	"bookmarkgc/internal/trace"
)

func TestFlightRingKeepsTheNewest(t *testing.T) {
	// The ring grows to ringEvents, then overwrites its oldest entry and
	// counts a drop for each.
	for _, pushes := range []int{ringEvents - 1, ringEvents, ringEvents + 1, 10000} {
		var r flightRing
		ctrs := trace.NewCounters()
		for i := 0; i < pushes; i++ {
			r.push(flightEvent{TimeNS: int64(i)}, ctrs)
		}
		kept := min(pushes, ringEvents)
		got := r.tail()
		if len(got) != kept || len(r.buf) > ringEvents {
			t.Fatalf("%d pushes: tail holds %d events in a buffer of %d, want %d", pushes, len(got), len(r.buf), kept)
		}
		for k, e := range got {
			if want := int64(pushes - kept + k); e.TimeNS != want {
				t.Fatalf("%d pushes: tail[%d] is event %d, want %d", pushes, k, e.TimeNS, want)
			}
		}
		if drops := ctrs.Get(trace.CTelemetryRingDrops); drops != uint64(pushes-kept) {
			t.Errorf("%d pushes: %d drops, want %d", pushes, drops, pushes-kept)
		}
	}
}
