package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"strconv"

	"bookmarkgc/internal/metrics"
)

// This file serializes a run's telemetry. Two formats:
//
//   - CSV: the sample series only — one header row of column names,
//     one row per sample, plain integers.
//   - JSONL: the full story — one "sample" object per sample, then one
//     "pause" object per attributed pause (phase self-times and fault
//     stalls), then one "digest" object per pause kind plus the
//     combined one.
//
// Both formats are assembled with fixed field orderings from this
// package (maps go through encoding/json, which sorts keys), so output
// bytes are identical for any host schedule — the determinism tests cmp
// these bytes across -mark-workers and -jobs values.

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
	n := c.series.Len()
	var buf [20]byte
	for row := 0; row < n; row++ {
		for i := Column(0); i < numColumns; i++ {
			if i > 0 {
				bw.WriteByte(',')
			}
			bw.Write(strconv.AppendInt(buf[:0], c.series.cols[i][row], 10))
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// WriteJSONL writes samples, pause attributions, and digests as one
// JSON object per line.
func (c *Collector) WriteJSONL(w io.Writer) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	bw := bufio.NewWriter(w)
	n := c.series.Len()
	var buf [20]byte
	for row := 0; row < n; row++ {
		bw.WriteString(`{"type":"sample"`)
		for i := Column(0); i < numColumns; i++ {
			bw.WriteString(`,"`)
			bw.WriteString(i.String())
			bw.WriteString(`":`)
			bw.Write(strconv.AppendInt(buf[:0], c.series.cols[i][row], 10))
		}
		bw.WriteString("}\n")
	}
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
	writeDigest := func(kind string, d *Digest) error {
		line, err := json.Marshal(struct {
			Type   string `json:"type"`
			Kind   string `json:"kind"`
			Count  uint64 `json:"count"`
			SumNS  uint64 `json:"sum_ns"`
			P50NS  uint64 `json:"p50_ns"`
			P95NS  uint64 `json:"p95_ns"`
			P99NS  uint64 `json:"p99_ns"`
			P999NS uint64 `json:"p999_ns"`
			MaxNS  uint64 `json:"max_ns"`
		}{"digest", kind, d.Count(), d.Sum(), d.Quantile(0.50), d.Quantile(0.95),
			d.Quantile(0.99), d.Quantile(0.999), d.Max()})
		if err != nil {
			return err
		}
		bw.Write(line)
		bw.WriteByte('\n')
		return nil
	}
	for k := 0; k < numPauseKinds; k++ {
		if c.digests[k].Count() == 0 {
			continue
		}
		if err := writeDigest(metrics.PauseKind(k).String(), &c.digests[k]); err != nil {
			return err
		}
	}
	if err := writeDigest("all", &c.allDigest); err != nil {
		return err
	}
	return bw.Flush()
}
