// Package bench regenerates every table and figure of the paper's
// evaluation (§5). Each experiment is two passes over the same
// configuration loops: an emission pass that enumerates every simulation
// the experiment might need as runner.Jobs, and a reduce pass that folds
// the (memoized, content-hash-keyed) results into the paper's rows.
// The runner executes the emitted jobs on a worker pool; because results
// are looked up by hash during the reduce, report bytes are identical
// whether the sweep ran on one worker or many, fresh or from cache.
//
// Workloads, heap sizes, and memory sizes all scale together through
// Options.Scale, so the experiments keep their shape at a fraction of the
// paper's (1 GB machine, 77 MB heap) scale. Absolute times differ from
// the paper — the substrate is a simulator — but who wins, by what rough
// factor, and where the crossovers fall is preserved; EXPERIMENTS.md
// records paper-vs-measured for each figure.
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/runner"
)

// Options configures an experiment run.
type Options struct {
	// Scale multiplies every byte quantity (allocation volume, heap,
	// physical memory). 1.0 is paper scale; 0.1 runs in seconds.
	Scale float64
	// Seed drives the deterministic workloads.
	Seed int64
	// Counters attaches an event-counter registry to every run;
	// experiments that report cooperation behaviour add counter notes.
	Counters bool
}

func (o Options) bytes(paperBytes float64) uint64 {
	b := uint64(paperBytes * o.Scale)
	return mem.RoundUpPage(b)
}

// Report is one table or figure's data, printable as aligned text.
type Report struct {
	ID     string     `json:"id"` // "table1", "fig2", ...
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
}

// Print writes the report as an aligned table.
func (r *Report) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(r.Header)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Experiment is a named, runnable reproduction of one table or figure.
// Run emits the experiment's jobs to the runner and reduces the results;
// it owns no execution policy (parallelism, caching, timeouts all live
// in the runner it is handed).
type Experiment struct {
	ID   string
	Desc string
	Run  func(Options, *runner.Runner) []Report
}

// Experiments lists every reproduction, in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "benchmark memory statistics", Table1},
		{"fig2", "execution time relative to BC, no memory pressure", Fig2},
		{"fig2x", "per-benchmark detail behind Figure 2's geomean", Fig2Detail},
		{"fig3", "steady memory pressure: execution time and mean pause", Fig3},
		{"fig3x", "steady pressure at 70% removal (§5.3.1 text)", Fig3x},
		{"fig4", "dynamic pressure: mean GC pause", Fig4},
		{"fig5", "dynamic pressure: execution time (and fixed nurseries)", Fig5},
		{"fig6", "bounded mutator utilization curves", Fig6},
		{"fig7", "two JVMs: execution time and mean pause", Fig7},
		{"ablate", "ablations of BC design choices (§7, DESIGN.md)", Ablations},
		{"replay", "one recorded trace replayed across collectors", Replay},
		{"fleet", "16-tenant shared machine: arbitration policy vs fleet survival", Fleet},
		{"heappolicy", "heap-limit policy Pareto: total memory vs total GC time", HeapPolicy},
	}
}

// ByID returns the named experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// counterNote renders one run's cooperation counters as a report note.
// c is the runner result's by-name counter map; nil (counters were not
// collected) yields the empty string.
func counterNote(label string, c map[string]uint64) string {
	if c == nil {
		return ""
	}
	return fmt.Sprintf(
		"%s: bookmarked=%d evicted=%d discarded=%d reloaded=%d incoming(+%d/-%d) remset(filtered=%d carded=%d) forwarded=%dB",
		label,
		c["objects_bookmarked"], c["pages_processed"],
		c["pages_discarded"], c["pages_reloaded"],
		c["incoming_bumps"], c["incoming_decrements"],
		c["remset_entries_filtered"], c["remset_entries_carded"],
		c["forwarded_bytes"])
}

// secs formats a simulated duration.
func secs(s float64) string { return fmt.Sprintf("%.3fs", s) }

// ms formats a duration in milliseconds.
func ms(d time.Duration) string { return fmt.Sprintf("%.1fms", float64(d)/1e6) }
