package bench

import (
	"bytes"
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

// TestReportDeterminism is the regression gate for report bytes: they are
// a pure function of the experiment's inputs, identical whether jobs run
// on 1 worker or 8. fig4 covers a job that depends on a result (the
// baseline batch, then the sweep its duration calibrates); fleet covers
// multi-tenant fleet jobs with chaos, arbitration, and the cascade ladder.
// One seed each: every reduce reads index-aligned RunAll results, so
// scheduling reaches the bytes only through the runner, which
// internal/runner's TestSchedulingDeterminism covers. CI compares fig4 and
// fig7 (two-tenant fleet jobs) at -jobs 1 and 4 as well.
func TestReportDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fig4 and fleet twice each; the engine-level half (internal/runner TestSchedulingDeterminism) still runs under -short")
	}
	for _, id := range []string{"fig4", "fleet"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("unknown experiment %s", id)
		}
		t.Run(id+"/seed1", func(t *testing.T) {
			o := Options{Scale: 0.02, Seed: 1}
			seq := renderAll(t, e, o, 1)
			par := renderAll(t, e, o, 8)
			if !bytes.Equal(seq, par) {
				t.Errorf("report bytes differ between -jobs 1 and -jobs 8:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s", seq, par)
			}
		})
	}
}
