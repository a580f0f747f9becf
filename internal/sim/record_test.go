package sim

import (
	"os"
	"path/filepath"
	"testing"

	"bookmarkgc/internal/mutator"
	"bookmarkgc/internal/trace"
	"bookmarkgc/internal/workload"
)

func recordConfig() RunConfig {
	prog, _ := mutator.ByName("compress")
	return RunConfig{
		Collector: GenMS, Program: prog.Scale(0.02),
		HeapBytes: 8 << 20, PhysBytes: 64 << 20, Seed: 1,
		Counters: trace.NewCounters(),
	}
}

// TestRecordTraceCountsWhatItWrote: the file verifies, and the events
// counted while writing are the events a reader finds in it.
func TestRecordTraceCountsWhatItWrote(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.gctrace")
	r, err := RecordTrace(path, recordConfig())
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rd, err := workload.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	st, err := workload.Verify(rd)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Counters.Get(trace.CWorkloadEventsRecorded); got != st.Events || got == 0 {
		t.Errorf("counted %d events while recording, the file holds %d", got, st.Events)
	}
	if st.Footer.Checksum != r.Mutator.Checksum {
		t.Errorf("footer checksum %#x, run's %#x", st.Footer.Checksum, r.Mutator.Checksum)
	}
}
