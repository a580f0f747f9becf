package telemetry

import (
	"testing"
	"time"
)

func TestBucketIndexMonotonicAndBounded(t *testing.T) {
	prev := -1
	for _, v := range []uint64{0, 1, 15, 16, 17, 31, 32, 63, 100, 1 << 10,
		1<<20 + 3, 1 << 40, 1<<63 + 1, ^uint64(0)} {
		idx := bucketIndex(v)
		if idx < 0 || idx >= digestBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, idx)
		}
		if idx < prev {
			t.Fatalf("bucketIndex(%d) = %d decreased (prev %d)", v, idx, prev)
		}
		prev = idx
	}
}

func TestBucketBoundsContainValue(t *testing.T) {
	for v := uint64(0); v < 1<<16; v += 7 {
		idx := bucketIndex(v)
		lo, hi := bucketBounds(idx)
		if v < lo || v > hi {
			t.Fatalf("value %d outside its bucket %d bounds [%d, %d]", v, idx, lo, hi)
		}
	}
}

func TestDigestExactStats(t *testing.T) {
	var d Digest
	vals := []uint64{3, 1, 4, 1, 5, 9, 2, 6}
	var sum uint64
	for _, v := range vals {
		d.Observe(v)
		sum += v
	}
	if d.Count() != uint64(len(vals)) {
		t.Errorf("Count = %d, want %d", d.Count(), len(vals))
	}
	if d.Sum() != sum {
		t.Errorf("Sum = %d, want %d", d.Sum(), sum)
	}
	if d.Min() != 1 || d.Max() != 9 {
		t.Errorf("Min/Max = %d/%d, want 1/9", d.Min(), d.Max())
	}
	if got := d.Mean(); got != float64(sum)/float64(len(vals)) {
		t.Errorf("Mean = %v", got)
	}
}

func TestDigestQuantileSmallValuesExact(t *testing.T) {
	// Values below 16 each occupy their own bucket, so quantiles over
	// them are exact (modulo the clamp to observed min/max).
	var d Digest
	for v := uint64(1); v <= 9; v++ {
		d.Observe(v)
	}
	if got := d.Quantile(0); got != 1 {
		t.Errorf("p0 = %d, want 1", got)
	}
	if got := d.Quantile(0.5); got != 5 {
		t.Errorf("p50 = %d, want 5", got)
	}
	if got := d.Quantile(1); got != 9 {
		t.Errorf("p100 = %d, want 9", got)
	}
}

func TestDigestQuantileApproximation(t *testing.T) {
	// Four sub-buckets per octave bound the relative error at roughly a
	// quarter of the value; check a uniform distribution stays well
	// within that and inside the observed range.
	var d Digest
	for v := uint64(1); v <= 10000; v++ {
		d.Observe(v)
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		got := float64(d.Quantile(q))
		want := q * 10000
		if got < want*0.70 || got > want*1.30 {
			t.Errorf("Quantile(%v) = %v, want within 30%% of %v", q, got, want)
		}
	}
	if d.Quantile(2) != d.Max() || d.Quantile(-1) < d.Min() {
		t.Error("out-of-range q must clamp to observed extremes")
	}
}

func TestDigestEmpty(t *testing.T) {
	var d Digest
	if d.Count() != 0 || d.Quantile(0.5) != 0 || d.Mean() != 0 || d.Max() != 0 {
		t.Error("empty digest must answer zero everywhere")
	}
}

func TestObserveDurationClampsNegative(t *testing.T) {
	var d Digest
	d.ObserveDuration(-time.Second)
	if d.Max() != 0 || d.Count() != 1 {
		t.Errorf("negative duration: max=%d count=%d, want 0/1", d.Max(), d.Count())
	}
}
