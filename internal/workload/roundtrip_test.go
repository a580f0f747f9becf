package workload_test

import (
	"bufio"
	"bytes"
	"os"
	"reflect"
	"testing"

	"bookmarkgc/internal/mutator"
	"bookmarkgc/internal/sim"
	"bookmarkgc/internal/workload"
)

// TestRecordReplayRoundTrip is the package's central property: recording
// a program and replaying the trace under the same collector reproduces
// the run bit-for-bit — execution time, GC statistics, fault counts,
// pause timeline, and the mutator's data checksum (the footer fails the
// replay on any divergence, so completion alone already proves the
// checksum; the explicit comparisons localize a break). Every program in
// the suite goes through BC and GenMS at a small scale.
func TestRecordReplayRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("record+replay of the full suite takes a few seconds")
	}
	const scale = 0.02
	for _, prog := range mutator.Programs {
		for _, col := range []sim.CollectorKind{sim.BC, sim.GenMS} {
			t.Run(prog.Name+"/"+string(col), func(t *testing.T) {
				scaled := prog.Scale(scale)
				heap := scaled.MinHeap * 2
				phys := heap*4 + (16 << 20)

				raw, orig := recordRun(t, scaled, col, heap, phys, 1)

				// The recorded bytes are structurally valid...
				rd, err := workload.NewReader(bytes.NewReader(raw))
				if err != nil {
					t.Fatal(err)
				}
				st, err := workload.Verify(rd)
				if err != nil {
					t.Fatalf("verify: %v", err)
				}
				if st.Allocs != orig.Mutator.Allocations || st.Bytes != orig.Mutator.AllocatedBytes {
					t.Fatalf("trace totals (%d, %d) != run totals (%d, %d)",
						st.Allocs, st.Bytes, orig.Mutator.Allocations, orig.Mutator.AllocatedBytes)
				}

				// ...and replaying them reproduces the run exactly.
				src, err := workload.Open(writeFile(t, raw))
				if err != nil {
					t.Fatal(err)
				}
				rep := sim.Run(sim.RunConfig{
					Collector: col,
					HeapBytes: heap, PhysBytes: phys,
					Workload: src,
				})
				if rep.Err != nil {
					t.Fatalf("replay: %v", rep.Err)
				}
				if rep.ElapsedSecs != orig.ElapsedSecs {
					t.Errorf("exec time diverged: replay %.9fs, original %.9fs",
						rep.ElapsedSecs, orig.ElapsedSecs)
				}
				if !reflect.DeepEqual(rep.Mutator, orig.Mutator) {
					t.Errorf("mutator result diverged:\nreplay   %+v\noriginal %+v",
						rep.Mutator, orig.Mutator)
				}
				if !reflect.DeepEqual(rep.GCStats, orig.GCStats) {
					t.Errorf("GC stats diverged:\nreplay   %+v\noriginal %+v",
						rep.GCStats, orig.GCStats)
				}
				if !reflect.DeepEqual(rep.ProcStats, orig.ProcStats) {
					t.Errorf("process stats diverged:\nreplay   %+v\noriginal %+v",
						rep.ProcStats, orig.ProcStats)
				}
				if !reflect.DeepEqual(rep.Timeline, orig.Timeline) {
					t.Errorf("pause timeline diverged (%d vs %d pauses)",
						rep.Timeline.Count(), orig.Timeline.Count())
				}
			})
		}
	}
}

func writeFile(t *testing.T, raw []byte) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "*.gctrace")
	if err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriter(f)
	if _, err := w.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return f.Name()
}
