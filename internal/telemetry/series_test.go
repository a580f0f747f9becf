package telemetry

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// refRows generates n rows whose columns take every shape the store
// must round-trip: a steady grid, counters, random walks, full-range
// noise, the int64 extremes, alternating signs and constants.
func refRows(rng *rand.Rand, n int) [][NumColumns]int64 {
	extremes := [...]int64{math.MinInt64, math.MaxInt64, 0, -1, 1, math.MinInt64 + 1, math.MaxInt64 - 1}
	rows := make([][NumColumns]int64, n)
	for i := 0; i < NumColumns; i++ {
		start, step := rng.Int63n(1<<40)-1<<39, rng.Int63n(1<<20)
		v := start
		for k := range rows {
			switch i % 7 {
			case 0: // grid
				v = start + int64(k)*step
			case 1: // counter
				v += rng.Int63n(64)
			case 2: // level
				v += rng.Int63n(2001) - 1000
			case 3: // noise
				v = int64(rng.Uint64())
			case 4:
				v = extremes[rng.Intn(len(extremes))]
			case 5: // alternating signs
				v = -v
				if k%2 == 0 {
					v = math.MaxInt64 - rng.Int63n(4)
				}
			case 6:
				v = start
			}
			rows[k][i] = v
		}
	}
	return rows
}

// renderCSV and renderJSONL render ref as the exports do: the reference
// the store's streamed export is compared against.
func renderCSV(ref [][NumColumns]int64) []byte {
	var b bytes.Buffer
	for i := 0; i < NumColumns; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(Column(i).String())
	}
	b.WriteByte('\n')
	for _, row := range ref {
		for i, v := range row {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatInt(v, 10))
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func renderJSONL(t testing.TB, ref [][NumColumns]int64) []byte {
	var b bytes.Buffer
	for _, row := range ref {
		b.WriteString(`{"type":"sample"`)
		for i, v := range row {
			b.WriteString(`,"` + Column(i).String() + `":` + strconv.FormatInt(v, 10))
		}
		b.WriteString("}\n")
	}
	// Without pauses the rest is the empty collector's "all" digest.
	if err := New(Config{}).WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// checkSeries stores ref and reads it back through every reader.
func checkSeries(t testing.TB, ref [][NumColumns]int64) {
	c := New(Config{})
	for k := range ref {
		c.series.push(&ref[k])
	}
	n := len(ref)
	if got := c.SampleCount(); got != n {
		t.Fatalf("Len %d, want %d", got, n)
	}
	for i := Column(0); i < numColumns; i++ {
		var want int64
		if n > 0 {
			want = ref[n-1][i]
		}
		if got := c.series.last(i); got != want {
			t.Fatalf("newest %s = %d, want %d", i, got, want)
		}
	}
	for _, tail := range []int{0, 1, seriesBlock - 1, seriesBlock, seriesBlock + 1, n - 1, n, n + 1} {
		from := max(n-tail, 0)
		if tail <= 0 {
			from = 0
		}
		all := c.SeriesTail(tail)
		for i := Column(0); i < numColumns; i++ {
			got := c.ColumnTail(i, tail)
			if len(got) != n-from || len(all[i.String()]) != n-from {
				t.Fatalf("tail %d of %s: %d and %d values, want %d", tail, i, len(got), len(all[i.String()]), n-from)
			}
			for k, v := range got {
				if want := ref[from+k][i]; v != want || all[i.String()][k] != want {
					t.Fatalf("tail %d of %s: sample %d reads %d and %d, want %d",
						tail, i, from+k, v, all[i.String()][k], want)
				}
			}
		}
	}
	var csv, jsonl bytes.Buffer
	if err := c.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csv.Bytes(), renderCSV(ref)) {
		t.Fatal("CSV differs from the reference rendering")
	}
	if !bytes.Equal(jsonl.Bytes(), renderJSONL(t, ref)) {
		t.Fatal("JSONL differs from the reference rendering")
	}
}

func TestSeriesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, seriesBlock - 1, seriesBlock, seriesBlock + 1, 3*seriesBlock + 17} {
		checkSeries(t, refRows(rng, n))
	}
}

func TestSeriesSteadyColumnsCostAByte(t *testing.T) {
	// A grid, a constant and a counter with a steady rate are all runs
	// of zero second differences: one byte per sample after the first.
	var s Series
	for k := int64(0); k < 10000; k++ {
		row := [numColumns]int64{k * 1_000_000, 42, 3 * k}
		s.push(&row)
	}
	for i := range s.cols {
		if n := len(s.cols[i]); n > s.n+16 {
			t.Errorf("column %s: %d bytes for %d samples", Column(i), n, s.n)
		}
	}
}

func FuzzSeriesRoundTrip(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 2, 4, 6, 8})
	ext := []byte{1}
	for i := 0; i < 2*NumColumns; i++ {
		ext = binary.AppendVarint(ext, []int64{math.MinInt64, math.MaxInt64, -1, 1}[i%4])
	}
	f.Add(ext)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		// Values are varints from data[1:], NumColumns to a row; a
		// data[0] of 1 mod 8 repeats the rows past a checkpoint.
		var rows [][NumColumns]int64
		var row [NumColumns]int64
		for i, rest := 0, data[1:]; ; i++ {
			v, k := binary.Varint(rest)
			if k <= 0 {
				break
			}
			rest = rest[k:]
			row[i%NumColumns] = v
			if i%NumColumns == NumColumns-1 {
				rows = append(rows, row)
			}
		}
		if data[0]%8 == 1 && len(rows) > 0 {
			for k := 0; len(rows) <= seriesBlock; k++ {
				rows = append(rows, rows[k])
			}
		}
		checkSeries(t, rows)
	})
}

var tailSink map[string][]int64

// BenchmarkSeriesTail reads a flight bundle's tail of sampleTail samples
// from a series of 10⁴ and of 10⁶ samples: the cost is one checkpoint
// block plus the tail, whatever the run's length.
func BenchmarkSeriesTail(b *testing.B) {
	for _, n := range []int{10_000, 1_000_000} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			c := New(Config{})
			rng := rand.New(rand.NewSource(1))
			var row [numColumns]int64
			for k := 0; k < n; k++ {
				row[ColTimeNS] = int64(k) * 1_000_000
				row[ColHeapUsedPages] += rng.Int63n(9) - 4
				row[ColMajorFaults] += rng.Int63n(3)
				row[ColAllocBytes] += rng.Int63n(1 << 12)
				c.series.push(&row)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tailSink = c.SeriesTail(sampleTail)
			}
			var size int
			for i := range c.series.cols {
				size += len(c.series.cols[i])
			}
			b.ReportMetric(float64(size)/float64(n*NumColumns), "B/value")
		})
	}
}
