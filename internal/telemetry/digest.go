package telemetry

import (
	"math/bits"
	"time"
)

// Digest is a log-bucketed duration distribution sized for pause times:
// four sub-buckets per power-of-two octave over the full uint64 range,
// in a fixed 256-entry array. Count, sum, min, and max are exact;
// observing is O(1) and allocation-free, so collectors can feed every
// pause without perturbing the run. It is the streaming answer, for a
// run still in progress (/metrics, flight bundles, JSONL digests). A
// finished run has its pauses in a metrics.Timeline, whose Percentile
// is exact and is what every report reads.
//
// A quantile is the bucket of the floor-rank sample, interpolated
// inside that bucket only: within about ±12% of that sample, but never
// moved toward the next one. Where samples are sparse — a handful of
// pauses with one outlier, which is what a tail is — the exact
// percentile lies between the floor-rank sample and the next, so the
// digest can understate it by up to the gap between them: of 7 pauses
// with a 4197 ms maximum it has answered p99 = 1594 ms where the exact
// value is 4040 ms.
type Digest struct {
	buckets [digestBuckets]uint64
	count   uint64
	sum     uint64
	min     uint64
	max     uint64
}

const digestBuckets = 256

// bucketIndex maps v to its bucket: values below 16 map directly, every
// later octave splits into 4 sub-buckets keyed by the two bits after the
// leading one.
func bucketIndex(v uint64) int {
	if v < 16 {
		return int(v)
	}
	l := bits.Len64(v) // >= 5
	idx := (l-1)*4 + int((v>>(l-3))&3)
	if idx >= digestBuckets {
		idx = digestBuckets - 1
	}
	return idx
}

// bucketBounds returns the inclusive value range covered by bucket idx.
func bucketBounds(idx int) (lo, hi uint64) {
	if idx < 16 {
		return uint64(idx), uint64(idx)
	}
	l := idx/4 + 1
	sub := uint64(idx % 4)
	width := uint64(1) << (l - 3)
	lo = uint64(1)<<(l-1) + sub*width
	return lo, lo + width - 1
}

// Observe records one value.
func (d *Digest) Observe(v uint64) {
	d.buckets[bucketIndex(v)]++
	d.count++
	d.sum += v
	if d.count == 1 || v < d.min {
		d.min = v
	}
	if v > d.max {
		d.max = v
	}
}

// ObserveDuration records a duration in nanoseconds (negative clamps to 0).
func (d *Digest) ObserveDuration(v time.Duration) {
	if v < 0 {
		v = 0
	}
	d.Observe(uint64(v))
}

// Count returns the number of observations.
func (d *Digest) Count() uint64 { return d.count }

// Sum returns the sum of all observations.
func (d *Digest) Sum() uint64 { return d.sum }

// Max returns the exact largest observation (0 when empty).
func (d *Digest) Max() uint64 { return d.max }

// Min returns the exact smallest observation (0 when empty).
func (d *Digest) Min() uint64 { return d.min }

// Mean returns the exact mean (0 when empty).
func (d *Digest) Mean() float64 {
	if d.count == 0 {
		return 0
	}
	return float64(d.sum) / float64(d.count)
}

// Quantile returns the approximate q-th quantile (q in [0,1], clamped):
// a value in the bucket holding the sample of rank floor(q·(n-1)),
// clamped to the exact observed [min, max].
func (d *Digest) Quantile(q float64) uint64 {
	if d.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(d.count-1)
	var seen uint64
	for idx, n := range d.buckets {
		if n == 0 {
			continue
		}
		// rank falls in this bucket when seen <= rank < seen+n.
		if float64(seen+n) > rank {
			lo, hi := bucketBounds(idx)
			frac := (rank - float64(seen)) / float64(n)
			v := float64(lo) + frac*float64(hi-lo)
			u := uint64(v)
			if u < d.min {
				u = d.min
			}
			if u > d.max {
				u = d.max
			}
			return u
		}
		seen += n
	}
	return d.max
}
