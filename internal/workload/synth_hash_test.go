package workload_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"testing"

	"bookmarkgc/internal/workload"
)

// TestSynthesizedStreamHash pins every synthesis model's trace bytes.
// Each model runs twice, at two sizes in alternating order, so a
// synthesis that reuses an earlier one's state must still write exactly
// what a fresh one writes. Regenerate with -update only when a model is
// meant to change.
func TestSynthesizedStreamHash(t *testing.T) {
	const golden = "testdata/synth_stream.sha256"
	var got bytes.Buffer
	for _, allocs := range []int{4000, 1500, 4000} {
		for _, model := range workload.Models {
			p := workload.SynthParams{Model: model, Allocs: allocs, Live: 300, Seed: int64(allocs)}
			var b bytes.Buffer
			if err := workload.Synthesize(&b, p); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "%s allocs=%d live=%d seed=%d %x\n", model, p.Allocs, p.Live, p.Seed, sha256.Sum256(b.Bytes()))
		}
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
		t.Fatalf("synthesized stream drifted:\n got:\n%s want:\n%s", got.Bytes(), want)
	}
}
