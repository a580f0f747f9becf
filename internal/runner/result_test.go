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
	rd := newRunData(sim.Result{
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
