package main

import (
	"math"
	"sort"
)

// nearestRank returns the nearest-rank q-quantile (0 < q <= 1) of xs:
// the smallest sample with at least q of the samples at or below it.
// xs is not modified; an empty xs yields 0.
func nearestRank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// lowest returns the smallest sample (0 for none). Every host cost is
// estimated by it: disturbance on a shared box only ever adds time, in
// slow regimes that last seconds (README, "Noise"), so the smallest of
// many samples of the same deterministic work is the one that measures
// the code. On the recorded noise log the minimum of a 14 s window
// varied by 8% between windows where its nearest-rank p10 varied by 20%.
func lowest(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = min(m, x)
	}
	return m
}

func median(xs []float64) float64 { return nearestRank(xs, 0.50) }

// sumUnits is the Σ-unit estimator: samples[u][p] is unit u's cost on
// pass p; the result is the sum over units of pick(unit u's samples).
// Estimating per unit, not per pass, lets every unit contribute its
// least-disturbed pass even when no single pass ran undisturbed end to
// end.
func sumUnits(samples [][]float64, pick func([]float64) float64) float64 {
	var sum float64
	for _, unit := range samples {
		sum += pick(unit)
	}
	return sum
}

// quartiles returns the first quartile, median and third quartile of xs
// exactly as Python's statistics.quantiles(xs, n=4) does (exclusive
// method, extrapolating at the ends), so the A/A helper computes
// spreads the way the acceptance check does. A lone sample is returned
// three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}
