package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"strconv"
	"time"

	"bookmarkgc/internal/metrics"
)

// This file serializes a run's telemetry. Two formats:
//
//   - CSV: the sample series only — one header row of column names,
//     one row per sample, plain integers.
//   - JSONL: the full story — one "sample" object per sample, then one
//     "pause" object per attributed pause (phase self-times and fault
//     stalls), then one "digest" object per pause kind plus the
//     combined one: count, total, exact percentiles and maximum.
//
// Both formats are assembled with fixed field orderings from this
// package (maps go through encoding/json, which sorts keys), so output
// bytes are identical for any host schedule — the determinism tests cmp
// these bytes across runs and -jobs values.

// WriteCSV writes the sample series as CSV.
func (c *Collector) WriteCSV(w io.Writer) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	bw := bufio.NewWriter(w)
	for i := Column(0); i < numColumns; i++ {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString(i.String())
	}
	bw.WriteByte('\n')
	var buf [20]byte
	c.series.rows(func(row *[numColumns]int64) {
		for i, v := range row {
			if i > 0 {
				bw.WriteByte(',')
			}
			bw.Write(strconv.AppendInt(buf[:0], v, 10))
		}
		bw.WriteByte('\n')
	})
	return bw.Flush()
}

// WritePauses writes the newest tail attributed pauses held (every one
// when tail <= 0) as one JSON array on one line, each rendered as a
// flight bundle renders it: the body of the live /api/pauses. It
// renders under the lock and writes after it, so a slow reader never
// holds up the run.
func (c *Collector) WritePauses(w io.Writer, tail int) error {
	c.mu.Lock()
	out := c.renderPausesLocked(tail)
	c.mu.Unlock()
	if out == nil {
		out = []pauseJSON{} // an empty array, not null
	}
	return json.NewEncoder(w).Encode(out)
}

// WriteJSONL writes samples, pause attributions, and per-kind pause
// summaries as one JSON object per line.
func (c *Collector) WriteJSONL(w io.Writer) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	bw := bufio.NewWriter(w)
	var buf [20]byte
	c.series.rows(func(row *[numColumns]int64) {
		bw.WriteString(`{"type":"sample"`)
		for i, v := range row {
			bw.WriteString(`,"`)
			bw.WriteString(Column(i).String())
			bw.WriteString(`":`)
			bw.Write(strconv.AppendInt(buf[:0], v, 10))
		}
		bw.WriteString("}\n")
	})
	for i := range c.pauses {
		pj := renderPause(&c.pauses[i])
		line, err := json.Marshal(struct {
			Type string `json:"type"`
			pauseJSON
		}{"pause", pj})
		if err != nil {
			return err
		}
		bw.Write(line)
		bw.WriteByte('\n')
	}
	writeSummary := func(kind string, tl metrics.Timeline) error {
		line, err := json.Marshal(struct {
			Type   string        `json:"type"`
			Kind   string        `json:"kind"`
			Count  int           `json:"count"`
			SumNS  time.Duration `json:"sum_ns"`
			P50NS  time.Duration `json:"p50_ns"`
			P95NS  time.Duration `json:"p95_ns"`
			P99NS  time.Duration `json:"p99_ns"`
			P999NS time.Duration `json:"p999_ns"`
			MaxNS  time.Duration `json:"max_ns"`
		}{"digest", kind, tl.Count(), tl.TotalPause(), tl.Percentile(50), tl.Percentile(95),
			tl.Percentile(99), tl.Percentile(99.9), tl.MaxPause()})
		if err != nil {
			return err
		}
		bw.Write(line)
		bw.WriteByte('\n')
		return nil
	}
	for k := metrics.PauseKind(0); k < numPauseKinds; k++ {
		if tl := c.timelineLocked(k); tl.Count() > 0 {
			if err := writeSummary(k.String(), tl); err != nil {
				return err
			}
		}
	}
	if err := writeSummary("all", c.timelineLocked()); err != nil {
		return err
	}
	return bw.Flush()
}
