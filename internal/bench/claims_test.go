package bench

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// A claim is one of the paper's qualitative results as an executable
// assertion over a report an experiment prints: the paper's wording, the
// report it reads, and a predicate with its tolerance band. A claim that
// fails at a scale where it held in the paper is a finding to record in
// EXPERIMENTS.md, not a band to loosen.
type claim struct {
	id    string
	paper string // the paper's wording
	exp   string // experiment ID, and the ID of the report it reads
	check func(r Report) error
}

// claimOptions runs the claims at the smallest scale where they hold.
var claimOptions = Options{Scale: 0.02, Seed: 1}

var claims = []claim{
	{
		id:    "fig2/genms-ties-bc",
		paper: "BC and GenMS are effectively tied without memory pressure (Figure 2)",
		exp:   "fig2",
		check: func(r Report) error {
			for _, f := range fig2Factors {
				if err := within(r, "GenMS", f, 0.96, 1.04); err != nil {
					return err
				}
			}
			return nil
		},
	},
	{
		id:    "fig2/marksweep-largest-heap",
		paper: "MarkSweep is ~20% slower than BC at the largest heap (Figure 2)",
		exp:   "fig2",
		check: func(r Report) error {
			return within(r, "MarkSweep", fig2Factors[len(fig2Factors)-1], 1.0, 1.4)
		},
	},
}

// within requires the report's cell for collector at heap factor f to
// read a complete ratio in [lo, hi].
func within(r Report, collector string, f float64, lo, hi float64) error {
	v, err := cell(r, collector, factorLabels([]float64{f})[0])
	if err != nil {
		return err
	}
	if !(v >= lo && v <= hi) {
		return fmt.Errorf("%s at %.2fx reads %.3f, want [%.2f, %.2f]", collector, f, v, lo, hi)
	}
	return nil
}

// cell parses the number in row's column col of r. A cell that is "-" or
// that covers only some programs ("1.234 (5/9)") is an error.
func cell(r Report, row, col string) (float64, error) {
	c := -1
	for i, h := range r.Header {
		if h == col {
			c = i
		}
	}
	if c < 0 {
		return 0, fmt.Errorf("%s has no column %q", r.ID, col)
	}
	for _, cells := range r.Rows {
		if cells[0] != row {
			continue
		}
		if strings.Contains(cells[c], " ") {
			return 0, fmt.Errorf("%s: %s at %s covers only %s", r.ID, row, col, cells[c])
		}
		return strconv.ParseFloat(cells[c], 64)
	}
	return 0, fmt.Errorf("%s has no row %q", r.ID, row)
}

// TestPaperClaims runs each experiment the claims read once, on one
// runner, and checks every claim against its report.
func TestPaperClaims(t *testing.T) {
	rn := testRunner()
	reports := map[string]Report{} // by report ID
	for _, c := range claims {
		if _, ok := reports[c.exp]; ok {
			continue
		}
		e, _ := ByID(c.exp)
		for _, r := range e.Run(claimOptions, rn) {
			reports[r.ID] = r
		}
	}
	for _, c := range claims {
		t.Run(c.id, func(t *testing.T) {
			r, ok := reports[c.exp]
			if !ok {
				t.Fatalf("experiment %s printed no %s report", c.exp, c.exp)
			}
			if err := c.check(r); err != nil {
				t.Errorf("%v\npaper: %s", err, c.paper)
			}
		})
	}
}
