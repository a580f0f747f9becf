package workload_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"testing"

	"bookmarkgc/internal/mutator"
	"bookmarkgc/internal/sim"
	"bookmarkgc/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/pseudojbb_stream.sha256 from the current generator")

// recordRun runs prog under col and returns the trace it recorded along
// with the run's result.
func recordRun(t testing.TB, prog mutator.Spec, col sim.CollectorKind, heap, phys uint64, seed int64) ([]byte, sim.Result) {
	t.Helper()
	var buf bytes.Buffer
	wr, err := workload.NewWriter(&buf, workload.Meta{
		Name: prog.Name, Source: "record", Program: &prog, Seed: seed,
		Collector: string(col), HeapBytes: heap, PhysBytes: phys,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := workload.NewRecorder(wr)
	res := sim.Run(sim.RunConfig{
		Collector: col, Program: prog,
		HeapBytes: heap, PhysBytes: phys,
		Seed: seed, Sink: rec,
	})
	if res.Err != nil {
		t.Fatalf("recording run: %v", res.Err)
	}
	if err := rec.Close(res.Mutator); err != nil {
		t.Fatalf("closing trace: %v", err)
	}
	return buf.Bytes(), res
}

// recordPseudoJBB records pseudoJBB at the given scale and seed under
// GenMS with ample memory. The event stream depends on the program and
// the seed alone; the collector and geometry only appear in the header.
func recordPseudoJBB(t testing.TB, scale float64, seed int64) []byte {
	prog := mutator.PseudoJBB().Scale(scale)
	heap := prog.MinHeap * 2
	raw, _ := recordRun(t, prog, sim.GenMS, heap, heap*4, seed)
	return raw
}

// TestGeneratedStreamHash pins the generator's event stream — every
// size, index, slot and initial value it draws — by the SHA-256 of the
// trace it records, independently of the simulated clock that
// run_digests.golden pins. The hashes were taken before the generator's
// random source was replaced (PR 21); a drift in the draws fails here
// even if it happened to leave the simulated time alone. Regenerate with
// -update only when the stream is meant to change.
func TestGeneratedStreamHash(t *testing.T) {
	const golden = "testdata/pseudojbb_stream.sha256"
	var got bytes.Buffer
	for seed := int64(1); seed <= 2; seed++ {
		fmt.Fprintf(&got, "pseudojbb scale=0.01 seed=%d %x\n", seed, sha256.Sum256(recordPseudoJBB(t, 0.01, seed)))
	}
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("generated stream drifted:\n got:\n%s want:\n%s", got.Bytes(), want)
	}
}
