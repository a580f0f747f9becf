package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strconv"
)

// jsonWriter renders a flight bundle or a fleet bundle as
// json.MarshalIndent(b, "", " ") does, member by member. encoding/json would build the whole bundle in
// one encode state from its sync.Pool, which the Go collector empties:
// each dump after a host collection would grow a new state to the
// bundle's size, hundreds of kilobytes for a full event ring. Here only
// strings go through encoding/json, one at a time.
type jsonWriter struct {
	buf   *bytes.Buffer
	str   *json.Encoder // compact, into buf
	s     string        // the string str encodes, held so it is not boxed anew
	depth int           // open objects and arrays
	first bool          // the innermost open value has no member yet
	num   [32]byte
	keys  []string // a map's keys, sorted
}

// init has w write into buf.
func (w *jsonWriter) init(buf *bytes.Buffer) {
	w.buf = buf
	w.str = json.NewEncoder(buf)
}

// bundle renders b into the buffer and returns it.
func (w *jsonWriter) bundle(b *bundle) []byte {
	w.open('{')
	w.key("schema")
	w.string(b.Schema)
	w.key("reason")
	w.string(b.Reason)
	if b.Tenant != "" {
		w.key("tenant")
		w.string(b.Tenant)
	}
	w.key("sim_time_ns")
	w.int(b.SimTimeNS)
	w.key("collector")
	w.string(b.Collector)
	if b.RunError != "" {
		w.key("run_error")
		w.string(b.RunError)
	}
	w.key("samples")
	w.open('{')
	for _, k := range sortedKeys(w, b.Samples) {
		w.key(k)
		w.ints(b.Samples[k])
	}
	w.close('}')
	w.key("events")
	w.events(b.Events)
	w.key("pauses")
	w.pauses(b.Pauses)
	if len(b.Counters) > 0 {
		w.key("counters")
		w.open('{')
		for _, k := range sortedKeys(w, b.Counters) {
			w.key(k)
			w.uint(b.Counters[k])
		}
		w.close('}')
	}
	w.key("pause_p50_ns")
	w.int(b.PauseP50)
	w.key("pause_p99_ns")
	w.int(b.PauseP99)
	w.key("pause_max_ns")
	w.int(b.PauseMax)
	w.close('}')
	return w.buf.Bytes()
}

// fleetBundle renders b into the buffer and returns it.
func (w *jsonWriter) fleetBundle(b *FleetBundle) []byte {
	w.open('{')
	w.key("schema")
	w.string(b.Schema)
	w.key("reason")
	w.string(b.Reason)
	w.key("sim_time_ns")
	w.int(b.SimTimeNS)
	w.key("window_ns")
	w.int(b.WindowNS)
	w.key("window_major_faults")
	w.uint(b.WindowFaults)
	w.key("threshold_major_faults")
	w.uint(b.Threshold)
	w.key("sustained_windows")
	w.int(int64(b.SustainedFor))
	w.key("policy")
	w.string(b.Policy)
	if b.EscalatedTo != "" {
		w.key("escalated_to")
		w.string(b.EscalatedTo)
	}
	w.key("eviction_fairness")
	w.float(b.Fairness)
	w.key("agg_major_faults")
	w.uint(b.AggMajor)
	w.key("agg_evictions")
	w.uint(b.AggEvictions)
	w.key("arbiter_vetoes")
	w.uint(b.ArbiterVetoes)
	w.key("tenants")
	if b.Tenants == nil {
		w.buf.WriteString("null")
	} else {
		w.open('[')
		for i := range b.Tenants {
			t := &b.Tenants[i]
			w.elem()
			w.open('{')
			w.key("tenant")
			w.string(t.Tenant)
			w.key("collector")
			w.string(t.Collector)
			w.key("cooperative")
			w.bool(t.Cooperative)
			w.key("resident_pages")
			w.int(int64(t.ResidentPages))
			w.key("major_faults")
			w.uint(t.MajorFaults)
			w.key("evictions")
			w.uint(t.Evictions)
			if t.PauseP99NS != 0 {
				w.key("pause_p99_ns")
				w.int(t.PauseP99NS)
			}
			if t.Penalized {
				w.key("penalized")
				w.bool(true)
			}
			if t.Failed != "" {
				w.key("failed")
				w.string(t.Failed)
			}
			w.close('}')
		}
		w.close(']')
	}
	w.close('}')
	return w.buf.Bytes()
}

func (w *jsonWriter) events(es []eventJSON) {
	if es == nil {
		w.buf.WriteString("null")
		return
	}
	w.open('[')
	for i := range es {
		e := &es[i]
		w.elem()
		w.open('{')
		w.key("t_ns")
		w.int(e.TimeNS)
		w.key("kind")
		w.string(e.Kind)
		w.key("name")
		w.string(e.Name)
		if e.Arg1 != 0 {
			w.key("arg1")
			w.int(e.Arg1)
		}
		if e.Arg2 != 0 {
			w.key("arg2")
			w.int(e.Arg2)
		}
		w.close('}')
	}
	w.close(']')
}

func (w *jsonWriter) pauses(ps []pauseJSON) {
	if ps == nil {
		w.buf.WriteString("null")
		return
	}
	w.open('[')
	for i := range ps {
		p := &ps[i]
		w.elem()
		w.open('{')
		w.key("start_ns")
		w.int(p.StartNS)
		w.key("dur_ns")
		w.int(p.DurNS)
		w.key("kind")
		w.string(p.Kind)
		w.key("major_faults")
		w.uint(p.MajorFaults)
		w.key("fault_stall_ns")
		w.int(p.FaultStallNS)
		w.key("other_ns")
		w.int(p.OtherNS)
		if len(p.Phases) > 0 {
			w.key("phases")
			w.open('{')
			for _, k := range sortedKeys(w, p.Phases) {
				w.key(k)
				w.int(p.Phases[k])
			}
			w.close('}')
		}
		w.close('}')
	}
	w.close(']')
}

// ints renders xs, null when nil.
func (w *jsonWriter) ints(xs []int64) {
	if xs == nil {
		w.buf.WriteString("null")
		return
	}
	w.open('[')
	for _, x := range xs {
		w.elem()
		w.int(x)
	}
	w.close(']')
}

// sortedKeys returns m's keys in the order encoding/json writes them,
// in storage w keeps; the result is valid until the next call.
func sortedKeys[V any](w *jsonWriter, m map[string]V) []string {
	w.keys = w.keys[:0]
	for k := range m {
		w.keys = append(w.keys, k)
	}
	slices.Sort(w.keys)
	return w.keys
}

// open starts an object or array.
func (w *jsonWriter) open(c byte) {
	w.buf.WriteByte(c)
	w.depth++
	w.first = true
}

// close ends the innermost object or array, on a line of its own unless
// it is empty.
func (w *jsonWriter) close(c byte) {
	w.depth--
	if !w.first {
		w.newline()
	}
	w.buf.WriteByte(c)
	w.first = false
}

// elem starts a member of the innermost object or array.
func (w *jsonWriter) elem() {
	if !w.first {
		w.buf.WriteByte(',')
	}
	w.first = false
	w.newline()
}

func (w *jsonWriter) newline() {
	w.buf.WriteByte('\n')
	for range w.depth {
		w.buf.WriteByte(' ')
	}
}

// key starts an object member named k.
func (w *jsonWriter) key(k string) {
	w.elem()
	w.string(k)
	w.buf.WriteString(": ")
}

// string renders s, escaped as encoding/json escapes it.
func (w *jsonWriter) string(s string) {
	w.s = s
	w.str.Encode(&w.s)              // a string always encodes
	w.buf.Truncate(w.buf.Len() - 1) // Encode ends the value with a newline
	w.s = ""
}

func (w *jsonWriter) bool(x bool) { w.buf.Write(strconv.AppendBool(w.num[:0], x)) }

// float renders x as encoding/json renders a float64: the shortest
// decimal, in exponent form only for magnitudes below 1e-6 or from 1e21,
// with a one-digit exponent unpadded. x is never NaN or infinite.
func (w *jsonWriter) float(x float64) {
	f := byte('f')
	if a := math.Abs(x); a != 0 && (a < 1e-6 || a >= 1e21) {
		f = 'e'
	}
	b := strconv.AppendFloat(w.num[:0], x, f, -1, 64)
	if n := len(b); f == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	w.buf.Write(b)
}

func (w *jsonWriter) int(x int64) { w.buf.Write(strconv.AppendInt(w.num[:0], x, 10)) }

func (w *jsonWriter) uint(x uint64) { w.buf.Write(strconv.AppendUint(w.num[:0], x, 10)) }
