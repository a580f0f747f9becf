package main

import (
	"math"
	"testing"
)

func TestNearestRank(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, c := range []struct{ q, want float64 }{
		{0.10, 1}, {0.11, 2}, {0.50, 5}, {0.90, 9}, {1, 10}, {0.001, 1},
	} {
		if got := nearestRank(xs, c.q); got != c.want {
			t.Errorf("nearestRank(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 9 {
		t.Error("nearestRank reordered its input")
	}
	if nearestRank(nil, 0.5) != 0 || lowest(nil) != 0 {
		t.Error("no samples must read 0")
	}
	if got := lowest(xs); got != 1 {
		t.Errorf("lowest = %v, want 1", got)
	}
}

// The Σ-unit estimator takes each unit's own best pass: here no pass ran
// undisturbed end to end (every pass sums to 5), yet the estimate is the
// undisturbed cost 1+2 = 3.
func TestSumUnits(t *testing.T) {
	samples := [][]float64{
		{1, 3, 1.5}, // unit 0 on passes 0..2
		{4, 2, 3.5}, // unit 1
	}
	if got := sumUnits(samples, lowest); got != 3 {
		t.Errorf("sum of unit minima = %v, want 3", got)
	}
	if got := sumUnits(samples, median); got != 1.5+3.5 {
		t.Errorf("sum of unit medians = %v, want 5", got)
	}
	if got := sumUnits(nil, lowest); got != 0 {
		t.Errorf("no units = %v, want 0", got)
	}
}

func TestColumnTransposes(t *testing.T) {
	passes := []passSample{
		{unitCPU: []float64{1, 4}},
		{unitCPU: []float64{3, 2}},
	}
	got := column(passes, cpuOf)
	if len(got) != 2 || got[0][0] != 1 || got[0][1] != 3 || got[1][0] != 4 || got[1][1] != 2 {
		t.Errorf("column = %v", got)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), the
// function the acceptance check uses. Expected values computed with it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 5}, 1, 5, 10},
		{[]float64{2, 4}, 1.5, 3, 4.5},
		{[]float64{0.52, 0.49, 0.61, 0.50, 0.55, 0.51, 0.53, 0.58, 0.50, 0.54, 0.57}, 0.50, 0.53, 0.57},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestPassCountIsFixedByFlags(t *testing.T) {
	w := workload{passSeconds: 0.5}
	for _, c := range []struct {
		seconds float64
		want    int
	}{{16, 32}, {1, minPasses}, {1000, maxPasses}} {
		if got := passCount(w, c.seconds); got != c.want {
			t.Errorf("passCount(%v s) = %d, want %d", c.seconds, got, c.want)
		}
	}
}
