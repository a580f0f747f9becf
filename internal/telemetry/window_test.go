package telemetry

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"bookmarkgc/internal/metrics"
	"bookmarkgc/internal/trace"
)

// nextSample advances row to sample k of a stream shaped like a run's
// telemetry, plus the shapes that stress the encoding: a steady grid,
// counters, a random walk, full-range noise and the int64 extremes.
func nextSample(rng *rand.Rand, k int, row *[numColumns]int64) {
	row[ColTimeNS] = int64(k) * 1_000_000
	row[ColHeapUsedPages] += rng.Int63n(9) - 4
	row[ColResidentPages] = rng.Int63n(1 << 12)
	row[ColFreeFrames] = int64(rng.Uint64())
	row[ColMinorFaults] += rng.Int63n(3)
	row[ColMajorFaults] += rng.Int63n(64)
	row[ColAllocBytes] += rng.Int63n(1 << 12)
	row[ColGCs] += int64(k % 2)
	row[ColInPause] = int64(k / 7 % 2)
	row[ColHeapLimitPages] = [...]int64{math.MinInt64, math.MaxInt64, 0, -1}[rng.Intn(4)]
}

// nextEvent is ring event k: spans and points in turn, with arguments.
func nextEvent(rng *rand.Rand, k int) trace.Record {
	e := trace.Record{TS: time.Duration(k) * 1000, Kind: trace.RecordKind(k % 3)}
	if e.Kind == trace.RecPoint {
		e.Code = uint8(rng.Intn(trace.NumEvents))
		e.Arg1, e.Arg2 = int64(rng.Uint64()), rng.Int63n(5)
	} else {
		e.Code = uint8(rng.Intn(trace.NumPhases))
	}
	return e
}

// feed records n samples and n ring events into every collector.
func feed(rng *rand.Rand, from, n int, row *[numColumns]int64, cs ...*Collector) {
	for k := from; k < from+n; k++ {
		nextSample(rng, k, row)
		e := nextEvent(rng, k)
		for _, c := range cs {
			c.series.push(row)
			c.ring.push(e, nil)
		}
	}
}

// TestFlightRecorderBundleMatchesWholeRun: a fleet tenant's recorder,
// which holds only a window of the series, writes the same bundle
// samples and events as a collector that keeps the whole run, at every
// length around the window's and the checkpoints' boundaries.
func TestFlightRecorderBundleMatchesWholeRun(t *testing.T) {
	for _, n := range []int{1, sampleTail - 1, sampleTail, sampleTail + 1,
		seriesBlock - 1, seriesBlock, seriesBlock + 1, 3*seriesBlock + 17, 100_000} {
		whole, window := New(Config{}), NewFlightRecorder(Config{})
		var row [numColumns]int64
		feed(rand.New(rand.NewSource(int64(n))), 0, n, &row, whole, window)
		want, got := whole.bundleLocked("test"), window.bundleLocked("test")
		for _, part := range []struct {
			name      string
			want, got any
		}{{"samples", want.Samples, got.Samples}, {"events", want.Events, got.Events}} {
			w, err := json.Marshal(part.want)
			if err != nil {
				t.Fatal(err)
			}
			g, err := json.Marshal(part.got)
			if err != nil {
				t.Fatal(err)
			}
			if string(w) != string(g) {
				t.Errorf("n=%d: the flight recorder's bundle %s differ from the whole run's", n, part.name)
			}
		}
		if l := len(got.Samples[ColTimeNS.String()]); l != min(n, sampleTail) {
			t.Errorf("n=%d: the bundle holds %d samples, want %d", n, l, min(n, sampleTail))
		}
		if window.SampleCount() != n {
			t.Errorf("n=%d: the flight recorder counts %d samples", n, window.SampleCount())
		}
	}
}

// recorderBytes is what c's series and flight ring hold on the host.
func recorderBytes(c *Collector) int {
	s := &c.series
	n := cap(s.marks) * int(unsafe.Sizeof(s.marks[0]))
	for i := range s.cols {
		n += cap(s.cols[i])
	}
	for _, ch := range c.ring.chunks {
		if ch != nil {
			n += int(unsafe.Sizeof(*ch))
		}
	}
	return n
}

// TestFlightRecorderMemoryIsBounded: after 10⁶ samples and events a
// flight recorder's series and ring hold exactly what they held after
// 10⁴.
func TestFlightRecorderMemoryIsBounded(t *testing.T) {
	c := NewFlightRecorder(Config{})
	rng := rand.New(rand.NewSource(1))
	var row [numColumns]int64
	feed(rng, 0, 10_000, &row, c)
	early := recorderBytes(c)
	feed(rng, 10_000, 990_000, &row, c)
	if late := recorderBytes(c); late != early {
		t.Errorf("the flight recorder holds %d bytes after 10⁶ samples, %d after 10⁴", late, early)
	}
	t.Logf("%d bytes", early)
}

// TestFlightRecorderPausesMatchWholeRun: a flight recorder, which holds
// only the newest bundlePauses attributed pauses, writes the same bundle
// pauses and exact percentiles as a collector that keeps every pause,
// and holds no more pauses than a bundle shows. Each is attached to a
// run whose collector's timeline gets every pause, as gc.Base.Pause puts
// it there before telemetry attributes it, so the percentiles compared
// are the bundles' own, not zeros.
func TestFlightRecorderPausesMatchWholeRun(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	whole, window := New(Config{}), NewFlightRecorder(Config{})
	attach(whole)
	attach(window)
	var at time.Duration
	for n := 1; n <= 1000; n++ {
		a := PauseAttr{Pause: metrics.Pause{Start: at, Dur: time.Duration(rng.Int63n(1e9)),
			Kind: metrics.PauseKind(rng.Intn(numPauseKinds)), MajorFaults: uint64(rng.Intn(100))}}
		a.PhaseNS[rng.Intn(trace.NumPhases)] = a.Dur
		at += a.Dur + time.Millisecond
		for _, c := range []*Collector{whole, window} {
			c.col.Stats().Timeline.Record(a.Pause)
			c.recordPause(&a)
		}
		if n%97 != 0 && n > bundlePauses+1 {
			continue
		}
		want, got := whole.bundleLocked("test"), window.bundleLocked("test")
		if want.PauseP50 <= 0 || want.PauseP99 <= 0 || want.PauseMax <= 0 {
			t.Fatalf("after %d pauses the whole run's bundle reads p50/p99/max %d/%d/%dns", n, want.PauseP50, want.PauseP99, want.PauseMax)
		}
		w, err := json.Marshal([]any{want.Pauses, want.PauseP50, want.PauseP99, want.PauseMax})
		if err != nil {
			t.Fatal(err)
		}
		g, err := json.Marshal([]any{got.Pauses, got.PauseP50, got.PauseP99, got.PauseMax})
		if err != nil {
			t.Fatal(err)
		}
		if string(w) != string(g) {
			t.Errorf("after %d pauses the flight recorder's bundle pauses differ from the whole run's:\n%s\n%s", n, g, w)
		}
		if len(window.pauses) != min(n, bundlePauses) || cap(window.pauses) > 2*bundlePauses {
			t.Errorf("after %d pauses the flight recorder holds %d (capacity %d)", n, len(window.pauses), cap(window.pauses))
		}
	}
}
