// Package metrics records and summarizes the quantities the paper
// reports: garbage-collection pause times, execution times, page-fault
// counts, and bounded mutator utilization (BMU) curves.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"

	"bookmarkgc/internal/trace"
)

// PauseKind classifies a stop-the-world pause.
type PauseKind uint8

const (
	// PauseNursery is a minor (nursery) collection.
	PauseNursery PauseKind = iota
	// PauseFull is a major (full-heap) collection.
	PauseFull
	// PauseCompact is a full collection that also compacted the heap.
	PauseCompact
)

func (k PauseKind) String() string {
	switch k {
	case PauseNursery:
		return "nursery"
	case PauseFull:
		return "full"
	case PauseCompact:
		return "compact"
	}
	return "invalid"
}

// pausePhases is the trace span each kind of pause runs under: the one
// mapping between the two enumerations.
var pausePhases = [...]trace.Phase{
	PauseNursery: trace.PhasePauseNursery,
	PauseFull:    trace.PhasePauseFull,
	PauseCompact: trace.PhasePauseCompact,
}

// Phase returns the trace span a pause of kind k runs under.
func (k PauseKind) Phase() trace.Phase { return pausePhases[k] }

// PauseKindOf returns the kind of pause span p opens, or false when p is
// not a pause span.
func PauseKindOf(p trace.Phase) (PauseKind, bool) {
	for k, ph := range pausePhases {
		if ph == p {
			return PauseKind(k), true
		}
	}
	return 0, false
}

// Pause is one stop-the-world interval in simulated time.
type Pause struct {
	Start       time.Duration
	Dur         time.Duration
	Kind        PauseKind
	MajorFaults uint64 // faults taken during the pause
}

// Timeline accumulates a run's pauses and endpoints.
type Timeline struct {
	Pauses []Pause
	Start  time.Duration
	End    time.Duration
}

// Record appends a pause.
func (t *Timeline) Record(p Pause) { t.Pauses = append(t.Pauses, p) }

// Elapsed returns total run time.
func (t *Timeline) Elapsed() time.Duration { return t.End - t.Start }

// TotalPause returns the summed pause time.
func (t *Timeline) TotalPause() time.Duration {
	var s time.Duration
	for _, p := range t.Pauses {
		s += p.Dur
	}
	return s
}

// AvgPause returns the mean pause, or 0 with no pauses.
func (t *Timeline) AvgPause() time.Duration {
	if len(t.Pauses) == 0 {
		return 0
	}
	return t.TotalPause() / time.Duration(len(t.Pauses))
}

// MaxPause returns the longest pause.
func (t *Timeline) MaxPause() time.Duration {
	var m time.Duration
	for _, p := range t.Pauses {
		if p.Dur > m {
			m = p.Dur
		}
	}
	return m
}

// Count returns the number of pauses of the given kinds (all if none
// given).
func (t *Timeline) Count(kinds ...PauseKind) int {
	if len(kinds) == 0 {
		return len(t.Pauses)
	}
	n := 0
	for _, p := range t.Pauses {
		for _, k := range kinds {
			if p.Kind == k {
				n++
			}
		}
	}
	return n
}

// MutatorTime returns elapsed time minus pause time.
func (t *Timeline) MutatorTime() time.Duration {
	return t.Elapsed() - t.TotalPause()
}

// Utilization returns the fraction of the run spent in the mutator.
func (t *Timeline) Utilization() float64 {
	e := t.Elapsed()
	if e <= 0 {
		return 1
	}
	return float64(t.MutatorTime()) / float64(e)
}

// String summarizes a timeline.
func (t *Timeline) String() string {
	return fmt.Sprintf("elapsed=%v pauses=%d avg=%v max=%v util=%.3f",
		t.Elapsed(), len(t.Pauses), t.AvgPause(), t.MaxPause(), t.Utilization())
}

// MMU returns the minimum mutator utilization for windows of size w:
// the worst-case fraction of any window of length w spent in the mutator
// (Cheng & Blelloch). BMU is its monotone closure.
func (t *Timeline) MMU(w time.Duration) float64 {
	if w <= 0 {
		return 0
	}
	total := t.Elapsed()
	if w >= total {
		if total <= 0 {
			return 1
		}
		return float64(total-t.TotalPause()) / float64(total)
	}
	// Candidate worst windows start/end at pause boundaries. Evaluate
	// windows starting at each pause start and ending at each pause end.
	worst := 1.0
	eval := func(start time.Duration) {
		if start < t.Start {
			start = t.Start
		}
		if start+w > t.End {
			start = t.End - w
		}
		end := start + w
		var paused time.Duration
		for _, p := range t.Pauses {
			ps, pe := p.Start, p.Start+p.Dur
			if pe <= start || ps >= end {
				continue
			}
			if ps < start {
				ps = start
			}
			if pe > end {
				pe = end
			}
			paused += pe - ps
		}
		if u := float64(w-paused) / float64(w); u < worst {
			worst = u
		}
	}
	eval(t.Start)
	for _, p := range t.Pauses {
		eval(p.Start)
		eval(p.Start + p.Dur - w)
	}
	return worst
}

// BMU returns the bounded mutator utilization at window w: the minimum
// MMU over all windows of size w or greater (Sachindran et al., used in
// the paper's Figure 6). BMU is monotonically non-decreasing in w.
func (t *Timeline) BMU(w time.Duration) float64 {
	// MMU is not monotone, but its running minimum from the largest
	// window down is. Evaluate on a geometric grid from total time down
	// to w; the grid resolution is plenty for plotting.
	total := t.Elapsed()
	if w >= total {
		return t.MMU(total)
	}
	best := 1.0
	for win := total; win >= w; win = win * 9 / 10 {
		if u := t.MMU(win); u < best {
			best = u
		}
		if win == w {
			break
		}
		if win*9/10 < w {
			win = w * 10 / 9 // force final iteration at exactly w
		}
	}
	if u := t.MMU(w); u < best {
		best = u
	}
	return best
}

// BMUCurve samples the BMU at logarithmically spaced windows from lo to
// hi (inclusive endpoints), returning (window, utilization) pairs.
func (t *Timeline) BMUCurve(lo, hi time.Duration, points int) [][2]float64 {
	if points < 2 {
		points = 2
	}
	out := make([][2]float64, 0, points)
	ratio := float64(hi) / float64(lo)
	for i := 0; i < points; i++ {
		w := time.Duration(float64(lo) * math.Pow(ratio, float64(i)/float64(points-1)))
		out = append(out, [2]float64{w.Seconds(), t.BMU(w)})
	}
	return out
}

// Percentile returns the p-th percentile pause. p is clamped to
// [0, 100]; between sorted samples the value is linearly interpolated
// rather than truncated to the lower neighbour. Returns 0 with no
// pauses.
func (t *Timeline) Percentile(p float64) time.Duration {
	ds := make([]time.Duration, len(t.Pauses))
	for i, pa := range t.Pauses {
		ds[i] = pa.Dur
	}
	return percentileOf(ds, p)
}

// PercentileKind is Percentile restricted to pauses of one kind; it
// feeds the per-kind rows of the attribution report. Returns 0 when no
// pause of that kind occurred.
func (t *Timeline) PercentileKind(kind PauseKind, p float64) time.Duration {
	var ds []time.Duration
	for _, pa := range t.Pauses {
		if pa.Kind == kind {
			ds = append(ds, pa.Dur)
		}
	}
	return percentileOf(ds, p)
}

// percentileOf computes the linearly interpolated p-th percentile of ds
// (consumed: ds is sorted in place). Empty input yields 0.
func percentileOf(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	} else if p > 100 {
		p = 100
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	pos := p / 100 * float64(len(ds)-1)
	lo := int(pos)
	if lo >= len(ds)-1 {
		return ds[len(ds)-1]
	}
	frac := pos - float64(lo)
	return ds[lo] + time.Duration(frac*float64(ds[lo+1]-ds[lo]))
}
