package trace

import (
	"bufio"
	"fmt"
	"io"
	"time"
)

// This file serializes a Recorder's buffer. Two formats:
//
//   - Chrome trace_event JSON (the "JSON Array Format"): loadable in
//     chrome://tracing and Perfetto. Spans become ph:"B"/"E" duration
//     events, point events become ph:"i" instant events, and thread
//     names are emitted as metadata events.
//   - JSONL: one self-describing JSON object per line, for ad-hoc
//     processing with jq/pandas.
//
// All event and argument names are fixed ASCII identifiers from this
// package, so the JSON is assembled with fmt directly.

// usec renders a simulated timestamp in microseconds, Chrome's unit.
func usec(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// WriteChrome writes the buffer in Chrome trace_event format. process
// names the trace's single process (e.g. the gcsim invocation).
func (r *Recorder) WriteChrome(w io.Writer, process string) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	fmt.Fprintf(bw, "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":%q}}", process)
	for i, name := range r.sh.threads {
		fmt.Fprintf(bw, ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":%q}}", i+1, name)
	}
	for _, rec := range r.sh.recs {
		bw.WriteString(",\n")
		switch rec.Kind {
		case RecBegin, RecEnd:
			ph := "B"
			if rec.Kind == RecEnd {
				ph = "E"
			}
			fmt.Fprintf(bw, "{\"name\":%q,\"cat\":\"gc\",\"ph\":%q,\"ts\":%.3f,\"pid\":1,\"tid\":%d}",
				rec.Name(), ph, usec(rec.TS), rec.Tid)
		case RecPoint:
			e := Event(rec.Code)
			fmt.Fprintf(bw, "{\"name\":%q,\"cat\":\"vm\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{",
				rec.Name(), usec(rec.TS), rec.Tid)
			writeArgs(bw, e, rec.Arg1, rec.Arg2)
			bw.WriteString("}}")
		}
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// WriteJSONL writes the buffer as one JSON object per line.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for i, name := range r.sh.threads {
		fmt.Fprintf(bw, "{\"type\":\"thread\",\"tid\":%d,\"name\":%q}\n", i+1, name)
	}
	for _, rec := range r.sh.recs {
		fmt.Fprintf(bw, "{\"type\":%q,\"ts_us\":%.3f,\"tid\":%d,\"name\":%q",
			rec.Kind.String(), usec(rec.TS), rec.Tid, rec.Name())
		if e := Event(rec.Code); rec.Kind == RecPoint && (e.Arg(0) != "" || e.Arg(1) != "") {
			bw.WriteString(",\"args\":{")
			writeArgs(bw, e, rec.Arg1, rec.Arg2)
			bw.WriteString("}")
		}
		bw.WriteString("}\n")
	}
	return bw.Flush()
}

// writeArgs writes the named, non-empty arguments of e as JSON members.
func writeArgs(w io.Writer, e Event, a1, a2 int64) {
	sep := ""
	if n := e.Arg(0); n != "" {
		fmt.Fprintf(w, "%q:%d", n, a1)
		sep = ","
	}
	if n := e.Arg(1); n != "" {
		fmt.Fprintf(w, "%s%q:%d", sep, n, a2)
	}
}

// WriteText writes the registry as aligned "name value" lines, followed
// by histogram and vector summaries. Zero-valued entries are included so
// output columns are stable across runs.
func (c *Counters) WriteText(w io.Writer) error {
	if c == nil {
		_, err := fmt.Fprintln(w, "(counters disabled)")
		return err
	}
	bw := bufio.NewWriter(w)
	width := 0
	for _, row := range counterTable {
		width = max(width, len(row.name))
	}
	for id, row := range counterTable {
		fmt.Fprintf(bw, "%-*s %d\n", width, row.name, c.vals[id])
	}
	for id := range c.hists {
		h := &c.hists[id]
		fmt.Fprintf(bw, "%-*s count=%d sum=%d max=%d mean=%.2f buckets=[", width, histNames[id], h.Count, h.Sum, h.Max, h.Mean())
		sep := ""
		for b, n := range h.Buckets {
			if n == 0 {
				continue
			}
			fmt.Fprintf(bw, "%s<=%d:%d", sep, bucketUpper(b), n)
			sep = " "
		}
		bw.WriteString("]\n")
	}
	for id := range c.vecs {
		if len(c.vecs[id]) == 0 {
			continue
		}
		fmt.Fprintf(bw, "%-*s [", width, vecNames[id])
		sep := ""
		for i, n := range c.vecs[id] {
			if n == 0 {
				continue
			}
			fmt.Fprintf(bw, "%s%d:%d", sep, i, n)
			sep = " "
		}
		bw.WriteString("]\n")
	}
	return bw.Flush()
}

// WriteJSONL writes the registry as one JSON object on a single line, so
// it can be appended to a JSONL trace file.
func (c *Counters) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"type\":\"counters\"")
	if c != nil {
		bw.WriteString(",\"counters\":{")
		for id, row := range counterTable {
			if id > 0 {
				bw.WriteString(",")
			}
			fmt.Fprintf(bw, "%q:%d", row.name, c.vals[id])
		}
		bw.WriteString("},\"histograms\":{")
		for id := range c.hists {
			h := &c.hists[id]
			if id > 0 {
				bw.WriteString(",")
			}
			fmt.Fprintf(bw, "%q:{\"count\":%d,\"sum\":%d,\"max\":%d}", histNames[id], h.Count, h.Sum, h.Max)
		}
		bw.WriteString("},\"vectors\":{")
		for id := range c.vecs {
			if id > 0 {
				bw.WriteString(",")
			}
			fmt.Fprintf(bw, "%q:[", vecNames[id])
			for i, n := range c.vecs[id] {
				if i > 0 {
					bw.WriteString(",")
				}
				fmt.Fprintf(bw, "%d", n)
			}
			bw.WriteString("]")
		}
		bw.WriteString("}")
	}
	bw.WriteString("}\n")
	return bw.Flush()
}

// bucketUpper returns the inclusive upper bound of histogram bucket b.
func bucketUpper(b int) uint64 {
	if b == 0 {
		return 0
	}
	if b >= histBuckets-1 {
		return ^uint64(0)
	}
	return 1<<uint(b) - 1
}
