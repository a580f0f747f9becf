package telemetry

import (
	"encoding/json"
	"testing"
)

// TestBundleRendersAsMarshalIndent: the hand-rolled bundle writer
// writes exactly what json.MarshalIndent(b, "", " ") writes, for bundles
// with empty, nil and omitted members and strings that need escaping.
func TestBundleRendersAsMarshalIndent(t *testing.T) {
	full := &bundle{
		Schema: "gcsim-flight/v1", Reason: "fail-safe", Tenant: "t<3>&", SimTimeNS: -7,
		Collector: "BC", RunError: "out of memory: \"heap\"\n\t<é> ",
		Samples: map[string][]int64{"b": {1, -2, 1 << 62}, "a": {}, "c": nil},
		Events: []eventJSON{
			{TimeNS: 1, Kind: "begin", Name: "mark"},
			{TimeNS: 2, Kind: "point", Name: "evict", Arg1: -3, Arg2: 4},
			{TimeNS: 3, Kind: "end", Name: "mark", Arg2: 9},
		},
		Pauses: []pauseJSON{
			{StartNS: 1, DurNS: 2, Kind: "full", MajorFaults: 1 << 63, FaultStallNS: 3, OtherNS: 4,
				Phases: map[string]int64{"sweep": 5, "mark": 6}},
			{Kind: "nursery", Phases: map[string]int64{}},
			{Kind: "compact"},
		},
		Counters: map[string]uint64{"z": 1, "a": 0, "m": ^uint64(0)},
		PauseP50: 1, PauseP99: 2, PauseMax: 3,
	}
	bare := &bundle{Samples: map[string][]int64{}, Events: []eventJSON{}}
	empty := &bundle{Samples: map[string][]int64{}, Pauses: []pauseJSON{}, Counters: map[string]uint64{}}
	for name, b := range map[string]*bundle{"full": full, "bare": bare, "empty": empty} {
		want, err := json.MarshalIndent(b, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		enc := takeBundleEncoder()
		if got := enc.bundle(b); string(got) != string(want) {
			t.Errorf("%s: got\n%s\nwant\n%s", name, got, want)
		}
		enc.release()
	}
}

// TestFleetBundleRendersAsMarshalIndent is the same for fleet bundles,
// over the fairness values whose formatting encoding/json special-cases.
func TestFleetBundleRendersAsMarshalIndent(t *testing.T) {
	snaps := []TenantFlightSnap{
		{Tenant: "a", Collector: "BC", Cooperative: true, ResidentPages: 3, MajorFaults: 4, Evictions: 5},
		{Tenant: "b<&>", Collector: "GenMS", PauseP99NS: -1, Penalized: true, Failed: "out of \"memory\""},
	}
	for _, fair := range []float64{0, 1, 0.5, 1.0 / 3, 1e-7, 1.5e-10, 1e21, 123456789.125, -2e-300} {
		for _, tenants := range [][]TenantFlightSnap{nil, {}, snaps} {
			b := &FleetBundle{
				Schema: FleetBundleSchema, Reason: "cascade-thrash", SimTimeNS: 1, WindowNS: 2,
				WindowFaults: 3, Threshold: 4, SustainedFor: 5, Policy: "cooperative",
				Fairness: fair, AggMajor: 6, AggEvictions: 7, ArbiterVetoes: 8, Tenants: tenants,
			}
			if tenants != nil {
				b.EscalatedTo = "global-lru"
			}
			want, err := json.MarshalIndent(b, "", " ")
			if err != nil {
				t.Fatal(err)
			}
			enc := takeBundleEncoder()
			if got := enc.fleetBundle(b); string(got) != string(want) {
				t.Errorf("fairness %v, %d tenants: got\n%s\nwant\n%s", fair, len(tenants), got, want)
			}
			enc.release()
		}
	}
}
