package bench

import (
	"bytes"
	"fmt"
	"testing"

	"bookmarkgc/internal/runner"
)

// renderAll runs an experiment on a fresh runner with the given worker
// count and returns the rendered report bytes.
func renderAll(t *testing.T, e Experiment, o Options, workers int) []byte {
	t.Helper()
	rn := runner.New(runner.Options{Workers: workers})
	var buf bytes.Buffer
	for _, r := range e.Run(o, rn) {
		r.Print(&buf)
	}
	if buf.Len() == 0 {
		t.Fatalf("%s rendered nothing", e.ID)
	}
	return buf.Bytes()
}

// TestReportDeterminism is the ISSUE's regression gate: report bytes are
// a pure function of the experiment's inputs — identical whether jobs
// run on 1 worker or 8, for more than one seed. fig4 covers a job
// that depends on a result (the baseline batch, then the sweep its
// duration calibrates); fig7 covers multi-JVM jobs; fleet covers
// multi-tenant fleet jobs with chaos, arbitration, and the cascade
// ladder.
func TestReportDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fig4, fig7, and fleet four times; the engine-level half (internal/runner TestSchedulingDeterminism) still runs under -short")
	}
	for _, id := range []string{"fig4", "fig7", "fleet"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("unknown experiment %s", id)
		}
		for _, seed := range []int64{1, 2} {
			t.Run(fmt.Sprintf("%s/seed%d", id, seed), func(t *testing.T) {
				o := Options{Scale: 0.02, Seed: seed}
				seq := renderAll(t, e, o, 1)
				par := renderAll(t, e, o, 8)
				if !bytes.Equal(seq, par) {
					t.Errorf("report bytes differ between -jobs 1 and -jobs 8:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s", seq, par)
				}
			})
		}
	}
}
