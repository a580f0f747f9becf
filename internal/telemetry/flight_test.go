package telemetry

import (
	"testing"
	"time"

	"bookmarkgc/internal/trace"
)

func TestFlightRingKeepsTheNewest(t *testing.T) {
	// The ring grows to ringEvents, then overwrites its oldest entry and
	// counts a drop for each.
	for _, pushes := range []int{ringEvents - 1, ringEvents, ringEvents + 1, 10000} {
		var r flightRing
		ctrs := trace.NewCounters()
		for i := 0; i < pushes; i++ {
			r.push(trace.Record{TS: time.Duration(i), Kind: trace.RecPoint, Code: uint8(trace.EvHeapShrink)}, ctrs)
		}
		kept := min(pushes, ringEvents)
		got := r.appendTail(nil)
		chunks := 0
		for _, ch := range r.chunks {
			if ch != nil {
				chunks++
			}
		}
		if len(got) != kept || chunks != (kept+ringChunk-1)/ringChunk {
			t.Fatalf("%d pushes: tail holds %d events in %d chunks, want %d", pushes, len(got), chunks, kept)
		}
		for k, e := range got {
			if want := int64(pushes - kept + k); e.TimeNS != want || e.Kind != "point" || e.Name != trace.EvHeapShrink.String() {
				t.Fatalf("%d pushes: tail[%d] is %s %s at %d, want point %s at %d", pushes, k, e.Kind, e.Name, e.TimeNS, trace.EvHeapShrink, want)
			}
		}
		if drops := ctrs.Get(trace.CTelemetryRingDrops); drops != uint64(pushes-kept) {
			t.Errorf("%d pushes: %d drops, want %d", pushes, drops, pushes-kept)
		}
	}
}
