package runner

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"bookmarkgc/internal/gc"
	"bookmarkgc/internal/metrics"
	"bookmarkgc/internal/sim"
	"bookmarkgc/internal/vmm"
)

// storedRunData is the JSON line one RunData was written as into the
// result store. Stores on disk hold lines like it, so the encoding of a
// RunData, its pauses included, must not drift: a changed key orphans
// every stored result a resumed sweep would otherwise read back.
const storedRunData = `{"elapsed_secs":1.5,"start_ns":1000,"end_ns":1500001000,` +
	`"pauses":[{"start_ns":2000,"dur_ns":300,"kind":0},` +
	`{"start_ns":9000,"dur_ns":70000,"kind":1,"major_faults":4},` +
	`{"start_ns":100000,"dur_ns":5,"kind":2}],` +
	`"allocated_bytes":4096,"nursery":2,"full":1,"compactions":1,` +
	`"proc":{"MinorFaults":10,"MajorFaults":4,"Evictions":3,"Discards":2,"ProtFaults":1,"PeakResident":77},` +
	`"err":"BC: out of memory (heap budget 8 pages)","oom":true}`

// TestRunDataJSONPinned: a RunData marshals to the line the store has
// always held, and that line loads back to the same timeline.
func TestRunDataJSONPinned(t *testing.T) {
	tl := metrics.Timeline{
		Start: 1000,
		End:   1000 + 1500*time.Millisecond,
		Pauses: []metrics.Pause{
			{Start: 2000, Dur: 300, Kind: metrics.PauseNursery},
			{Start: 9000, Dur: 70000, Kind: metrics.PauseFull, MajorFaults: 4},
			{Start: 100000, Dur: 5, Kind: metrics.PauseCompact},
		},
	}
	rd := NewRunData(sim.Result{
		ElapsedSecs: 1.5,
		Timeline:    tl,
		GCStats:     gc.Stats{Nursery: 2, Full: 1, Compactions: 1},
		ProcStats:   vmm.ProcStats{MinorFaults: 10, MajorFaults: 4, Evictions: 3, Discards: 2, ProtFaults: 1, PeakResident: 77},
		Err:         gc.ErrOutOfMemory{Collector: "BC", HeapPages: 8},
	})
	rd.AllocatedBytes = 4096
	got, err := json.Marshal(rd)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != storedRunData {
		t.Fatalf("RunData encodes as\n%s\nthe store holds\n%s", got, storedRunData)
	}
	var back RunData
	if err := json.Unmarshal([]byte(storedRunData), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Timeline(), tl) {
		t.Fatalf("stored line loads as timeline %+v, want %+v", back.Timeline(), tl)
	}
}

// storedFleetResult is the JSON line a fleet job's Result was written as
// into the result store: one tenant's RunData and the fleet-level record.
// Its fleet keys, their order and which of them are omitted when empty
// must not drift, or a resumed fleet sweep re-runs what it stored.
const storedFleetResult = `{"hash":"f1ee7","runs":[{"name":"BC-0","elapsed_secs":0.5,"start_ns":0,"end_ns":500000000,` +
	`"pauses":[{"start_ns":7000,"dur_ns":900,"kind":1,"major_faults":2}],"allocated_bytes":0,` +
	`"proc":{"MinorFaults":0,"MajorFaults":2,"Evictions":5,"Discards":0,"ProtFaults":0,"PeakResident":40}}],` +
	`"fleet":{"initial_policy":"global-lru","final_policy":"cooperative","cascades":2,"escalated":true,` +
	`"agg_minor_faults":11,"agg_major_faults":22,"agg_evictions":33,"arbiter_vetoes":4,` +
	`"eviction_fairness":0.75,"pause_p99_ns":[900],"balancer_rounds":6,"agg_peak_resident":40,` +
	`"elapsed_secs":0.5},"counters":null}`

// TestFleetResultJSONPinned: a fleet job's Result marshals to the line
// the store has always held, its bundle paths left out, and that line
// loads back to the same Result.
func TestFleetResultJSONPinned(t *testing.T) {
	tenant := sim.Result{
		ElapsedSecs: 0.5,
		Timeline: metrics.Timeline{
			End:    500 * time.Millisecond,
			Pauses: []metrics.Pause{{Start: 7000, Dur: 900, Kind: metrics.PauseFull, MajorFaults: 2}},
		},
		ProcStats: vmm.ProcStats{MajorFaults: 2, Evictions: 5, PeakResident: 40},
	}
	fr := sim.FleetResult{
		Tenants: []sim.Result{tenant},
		Names:   []string{"BC-0"},
		FleetStats: sim.FleetStats{
			InitialPolicy:   sim.PolicyGlobalLRU,
			Policy:          sim.PolicyCooperative,
			Cascades:        2,
			Escalated:       true,
			AggMinorFaults:  11,
			AggMajorFaults:  22,
			AggEvictions:    33,
			ArbiterVetoes:   4,
			Fairness:        0.75,
			PauseP99NS:      []int64{900},
			BalancerRounds:  6,
			AggPeakResident: 40,
			ElapsedSecs:     0.5,
			FleetDumps:      []string{"d/fleet-001-cascade.json"},
		},
	}
	res := Result{Hash: "f1ee7", Fleet: &fr.FleetStats}
	rd := NewRunData(fr.Tenants[0])
	rd.Name = fr.Names[0]
	res.Runs = append(res.Runs, rd)
	got, err := json.Marshal(&res)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != storedFleetResult {
		t.Fatalf("a fleet Result encodes as\n%s\nthe store holds\n%s", got, storedFleetResult)
	}
	var back Result
	if err := json.Unmarshal([]byte(storedFleetResult), &back); err != nil {
		t.Fatal(err)
	}
	res.Fleet.FleetDumps = nil
	if !reflect.DeepEqual(back, res) {
		t.Fatalf("stored line loads as\n%+v\nwant\n%+v", back, res)
	}
}
