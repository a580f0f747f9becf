package bench

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bookmarkgc/internal/mutator"
	"bookmarkgc/internal/runner"
	"bookmarkgc/internal/sim"
)

func fmtSscan(s string, f *float64) (int, error) { return fmt.Sscan(s, f) }

// tiny options keep each experiment to a few seconds.
func tiny() Options { return Options{Scale: 0.02, Seed: 1} }

// testRunner executes jobs on every available core.
func testRunner() *runner.Runner { return runner.New(runner.Options{}) }

func TestExperimentRegistry(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range Experiments() {
		if e.ID == "" || e.Desc == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		ids[e.ID] = true
		if got, ok := ByID(e.ID); !ok || got.ID != e.ID {
			t.Fatalf("ByID(%s) failed", e.ID)
		}
	}
	for _, want := range []string{"table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "ablate"} {
		if !ids[want] {
			t.Fatalf("missing experiment %s", want)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("ByID invented an experiment")
	}
}

func TestReportPrint(t *testing.T) {
	r := Report{
		ID:     "x",
		Title:  "t",
		Header: []string{"a", "bbb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"n"},
	}
	var buf bytes.Buffer
	r.Print(&buf)
	out := buf.String()
	for _, want := range []string{"== x: t ==", "a    bbb", "333", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

// checkReports validates the common shape invariants of an experiment's
// output.
func checkReports(t *testing.T, rs []Report, wantRows int) {
	t.Helper()
	if len(rs) == 0 {
		t.Fatal("no reports")
	}
	for _, r := range rs {
		if len(r.Rows) < wantRows {
			t.Fatalf("%s: %d rows, want >= %d", r.ID, len(r.Rows), wantRows)
		}
		for _, row := range r.Rows {
			if len(row) != len(r.Header) {
				t.Fatalf("%s: ragged row %v vs header %v", r.ID, row, r.Header)
			}
			for _, cell := range row {
				if cell == "" {
					t.Fatalf("%s: empty cell in %v", r.ID, row)
				}
			}
		}
	}
}

func TestFig4Tiny(t *testing.T) {
	rs := Fig4(tiny(), testRunner())
	checkReports(t, rs, 5)
}

// TestFig4HardestBCCellCompletes pins the seeds at which BC failed at
// fig4's hardest point (42MB available) at scale 0.02: 9, 20 and 86
// panicked with "heap: FreeBlock on free superpage" (the compaction copy
// pass left a bookmarked object's slot on a vacated block), and 65 ran
// out of memory (superpages dropped from allocation while their free
// blocks sat on evicted pages were never offered again), and so did 72
// (compaction kept every superpage with an evicted page in place even
// after the fail-safe had invalidated the books). The cell is what the
// fig4 and fig5 reports print there.
func TestFig4HardestBCCellCompletes(t *testing.T) {
	for _, seed := range []int64{9, 20, 65, 72, 86} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			t.Parallel()
			o, rn := Options{Scale: 0.02, Seed: seed}, testRunner()
			prog := mutator.PseudoJBB().Scale(o.Scale)
			heap := o.bytes(fig45HeapMB * (1 << 20))
			avail := uint64(fig45Avail[len(fig45Avail)-1] * float64(heap))
			job := dynamicJob(o, sim.BC, prog, heap, avail, fig45Baseline(o, rn, prog, heap))
			if res := rn.Result(job); !res.OK() {
				t.Fatalf("%s: engine error %q, run error %q", job.Describe(), res.Err, res.One().Err)
			}
		})
	}
}

func TestFig7Tiny(t *testing.T) {
	rs := Fig7(tiny(), testRunner())
	checkReports(t, rs, 5)
	if rs[0].ID != "fig7a" || rs[1].ID != "fig7b" {
		t.Fatal("fig7 report ids wrong")
	}
}

func TestAblationsTiny(t *testing.T) {
	rs := Ablations(tiny(), testRunner())
	checkReports(t, rs, 5)
}

func TestFig6Tiny(t *testing.T) {
	rs := Fig6(tiny(), testRunner())
	checkReports(t, rs, 7)
	// BMU cells must be parseable fractions in [0,1] or "-".
	for _, r := range rs {
		for _, row := range r.Rows {
			for _, cell := range row[1:] {
				if cell == "-" {
					continue
				}
				var f float64
				if _, err := fmtSscan(cell, &f); err != nil || f < 0 || f > 1 {
					t.Fatalf("%s: bad BMU cell %q", r.ID, cell)
				}
			}
		}
	}
}

// TestReplayFailedTraceWrite: when the shared trace cannot be written
// the experiment is an error report, not four replays of a truncated
// file, and nothing is left behind (a link to /dev/full stands in for a
// full disk; removing the output removes the link).
func TestReplayFailedTraceWrite(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	path := filepath.Join(t.TempDir(), "full.gctrace")
	if err := os.Symlink("/dev/full", path); err != nil {
		t.Fatal(err)
	}
	reports := replayVia(path, tiny(), testRunner())
	if len(reports) != 1 || len(reports[0].Rows) != 0 || len(reports[0].Notes) != 1 ||
		!strings.HasPrefix(reports[0].Notes[0], "error: recording trace: ") {
		t.Errorf("replay over a full device reported %+v", reports)
	}
	if _, err := os.Lstat(path); !os.IsNotExist(err) {
		t.Errorf("the failed trace was left behind (Lstat: %v)", err)
	}
}
