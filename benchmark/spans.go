package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"bookmarkgc/internal/trace"
)

// span is one timed interval of the traced run, stamped on the
// process's monotonic clock. Spans of one job share Job; Parent is the
// index of the enclosing span in the trace, -1 for a root. A unit span
// also carries the process CPU the unit consumed.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Job     string `json:"job"`
	Pass    int    `json:"pass"`
	CPUNS   int64  `json:"cpu_ns,omitempty"`
}

// spanRecorder keeps every span of a traced run in memory; the trace is
// written once, when the benchmark ends. One goroutine records at a
// time, so spans nest and siblings never overlap.
type spanRecorder struct {
	spans []span
	stack []int
	job   string
	pass  int
}

// begin opens a span under the innermost open one and returns its index.
func (r *spanRecorder) begin(name string) int {
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := len(r.spans)
	r.stack = append(r.stack, id)
	r.spans = append(r.spans, span{Name: name, Parent: parent, Job: r.job, Pass: r.pass, StartNS: sinceStart()})
	return id
}

// end closes the innermost open span, which must be named name: the
// program's spans nest, and a mismatch means the trace would lie.
func (r *spanRecorder) end(name string) {
	now := sinceStart()
	n := len(r.stack)
	if n == 0 || r.spans[r.stack[n-1]].Name != name {
		panic(fmt.Sprintf("benchmark: span %q ended out of order", name))
	}
	r.spans[r.stack[n-1]].EndNS = now
	r.stack = r.stack[:n-1]
}

// unwind closes every span above depth, as a recovered panic (an
// out-of-memory job) leaves them: the trace stays well formed and the
// failure is reported by the caller.
func (r *spanRecorder) unwind(depth int) {
	for len(r.stack) > depth {
		r.end(r.spans[r.stack[len(r.stack)-1]].Name)
	}
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part of that interval its child spans cover. Children nest
// strictly inside their parent and siblings do not overlap, so the
// covered part is the plain sum over children.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.EndNS - s.StartNS
		if s.Parent >= 0 {
			self[s.Parent] -= s.EndNS - s.StartNS
		}
	}
	return self
}

// spanKey names the spans of one kind within one unit.
type spanKey struct{ job, name string }

// layerTotals folds the spans of one key in one pass.
type layerTotals struct {
	Count  int
	SelfNS int64
}

// totalsByKey sums count and self time per unit and span name for each
// pass: result[pass][{job, name}].
func totalsByKey(spans []span, passes int) []map[spanKey]layerTotals {
	out := make([]map[spanKey]layerTotals, passes)
	for i := range out {
		out[i] = make(map[spanKey]layerTotals)
	}
	self := selfTimes(spans)
	for i, s := range spans {
		k := spanKey{s.Job, s.Name}
		t := out[s.Pass][k]
		t.Count++
		t.SelfNS += self[i]
		out[s.Pass][k] = t
	}
	return out
}

// writeTrace stores the spans as JSON under dir.
func writeTrace(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	data, err := json.Marshal(spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// Span names the benchmark's own drivers emit; collector phases use
// "gc." + trace.Phase.String().
const (
	spanUnit         = "bench.unit"
	spanJob          = "sim.job"
	spanTeardown     = "sim.teardown"
	spanStep         = "mutator.step"
	spanEvictNotice  = "core.evict_notice"
	spanReloadNotice = "core.reload_notice"
)

func phaseSpan(p trace.Phase) string { return "gc." + p.String() }

// hostTracer is the benchmark's trace.Tracer: installed in gc.Env.Trace
// it stamps host time where the program marks its collector phases.
// Point events carry no duration and are dropped.
type hostTracer struct{ rec *spanRecorder }

func (t hostTracer) Enabled() bool                   { return true }
func (t hostTracer) Begin(p trace.Phase)             { t.rec.begin(phaseSpan(p)) }
func (t hostTracer) End(p trace.Phase)               { t.rec.end(phaseSpan(p)) }
func (t hostTracer) Point(trace.Event, int64, int64) {}
