// Package serve is the HTTP surface of a run's telemetry: the embedded
// dashboard, the Prometheus exposition, JSON snapshots and pprof. Only
// the command-line tools import it, so the simulator and everything the
// library links carry no networking code (no net, crypto/tls or cgo).
// It reads a telemetry.Collector through its exported, locking methods
// alone.
package serve

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"strconv"

	"bookmarkgc/internal/telemetry"
)

// ServerOptions configures NewMux. Telemetry may be nil (a progress-only
// server, as cmd/experiments runs); Progress may be nil (no sweep
// running, as cmd/gcsim serves).
type ServerOptions struct {
	// Telemetry feeds /metrics, /api/series, /api/pauses, /api/summary,
	// and the dashboard.
	Telemetry *telemetry.Collector
	// Progress, when set, is snapshotted by /api/progress — the runner's
	// sweep progress for a live experiments invocation.
	Progress func() interface{}
}

// NewMux builds the HTTP surface: the embedded dashboard at /, the
// Prometheus exposition at /metrics, JSON series endpoints under /api/,
// and net/http/pprof under /debug/pprof/ for profiling the simulator's
// own hot path. Handlers only snapshot under the collector's mutex, so
// serving never perturbs the simulated run.
func NewMux(opts ServerOptions) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.Write([]byte(dashboardHTML))
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if opts.Telemetry == nil {
			http.Error(w, "no telemetry attached", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		opts.Telemetry.WriteProm(w)
	})
	mux.HandleFunc("/api/series", func(w http.ResponseWriter, r *http.Request) {
		if opts.Telemetry == nil {
			http.Error(w, "no telemetry attached", http.StatusNotFound)
			return
		}
		tail, _ := strconv.Atoi(r.URL.Query().Get("tail"))
		cols := opts.Telemetry.SeriesTail(tail)
		writeJSON(w, struct {
			Collector string             `json:"collector"`
			Len       int                `json:"len"`
			Columns   map[string][]int64 `json:"columns"`
		}{opts.Telemetry.CollectorName(), len(cols["time_ns"]), cols})
	})
	mux.HandleFunc("/api/pauses", func(w http.ResponseWriter, r *http.Request) {
		if opts.Telemetry == nil {
			http.Error(w, "no telemetry attached", http.StatusNotFound)
			return
		}
		tail, _ := strconv.Atoi(r.URL.Query().Get("tail"))
		w.Header().Set("Content-Type", "application/json")
		opts.Telemetry.WritePauses(w, tail)
	})
	mux.HandleFunc("/api/summary", func(w http.ResponseWriter, r *http.Request) {
		if opts.Telemetry == nil {
			http.Error(w, "no telemetry attached", http.StatusNotFound)
			return
		}
		t := opts.Telemetry
		tl := t.Timeline()
		writeJSON(w, struct {
			Collector   string `json:"collector"`
			SimTimeNS   int64  `json:"sim_time_ns"`
			Samples     int    `json:"samples"`
			Pauses      int    `json:"pauses"`
			PauseP50NS  int64  `json:"pause_p50_ns"`
			PauseP99NS  int64  `json:"pause_p99_ns"`
			PauseMaxNS  int64  `json:"pause_max_ns"`
			FlightDumps int    `json:"flight_dumps"`
			MeanPauseNS int64  `json:"pause_mean_ns"`
		}{t.CollectorName(), int64(t.SimTime()), t.SampleCount(), tl.Count(),
			int64(tl.Percentile(50)), int64(tl.Percentile(99)), int64(tl.MaxPause()), t.FlightDumps(),
			int64(tl.AvgPause())})
	})
	mux.HandleFunc("/api/progress", func(w http.ResponseWriter, r *http.Request) {
		if opts.Progress == nil {
			http.Error(w, "no sweep in progress", http.StatusNotFound)
			return
		}
		writeJSON(w, opts.Progress())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// dashboardHTML is the embedded single-page dashboard: it polls
// /api/series and /api/summary and draws canvas sparklines. No external
// assets, so it works offline and inside CI.
const dashboardHTML = `<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<title>gcsim telemetry</title>
<style>
body { font: 13px/1.4 system-ui, sans-serif; margin: 1.5em; background: #fafafa; color: #222; }
h1 { font-size: 18px; margin: 0 0 4px; }
#meta { color: #666; margin-bottom: 1em; }
.card { background: #fff; border: 1px solid #ddd; border-radius: 6px; padding: 10px 14px; margin-bottom: 12px; }
.card h2 { font-size: 13px; margin: 0 0 6px; color: #444; }
canvas { width: 100%; height: 80px; display: block; }
.val { float: right; font-variant-numeric: tabular-nums; color: #06c; }
#grid { display: grid; grid-template-columns: 1fr 1fr; gap: 12px; }
@media (max-width: 800px) { #grid { grid-template-columns: 1fr; } }
</style>
</head>
<body>
<h1>gcsim live telemetry</h1>
<div id="meta">connecting&hellip;</div>
<div id="grid"></div>
<script>
const CHARTS = [
  {title: "heap used (pages)", col: "heap_used_pages", color: "#0366d6"},
  {title: "heap limit (pages)", col: "heap_limit_pages", color: "#005cc5"},
  {title: "resident (pages)", col: "resident_pages", color: "#28a745"},
  {title: "free frames", col: "free_frames", color: "#6f42c1"},
  {title: "major faults /sample", col: "major_faults", color: "#d73a49", delta: true},
  {title: "minor faults /sample", col: "minor_faults", color: "#f66a0a", delta: true},
  {title: "alloc bytes /sample", col: "alloc_bytes", color: "#005cc5", delta: true},
  {title: "objects bookmarked", col: "objects_bookmarked", color: "#22863a"},
  {title: "in pause", col: "in_pause", color: "#b31d28"},
];
const grid = document.getElementById("grid");
for (const ch of CHARTS) {
  const card = document.createElement("div");
  card.className = "card";
  card.innerHTML = "<h2>" + ch.title + "<span class=val></span></h2><canvas></canvas>";
  grid.appendChild(card);
  ch.canvas = card.querySelector("canvas");
  ch.valEl = card.querySelector(".val");
}
function draw(ch, data) {
  const c = ch.canvas, ctx = c.getContext("2d");
  c.width = c.clientWidth * devicePixelRatio;
  c.height = c.clientHeight * devicePixelRatio;
  ctx.clearRect(0, 0, c.width, c.height);
  if (data.length < 2) return;
  let v = data;
  if (ch.delta) {
    v = [];
    for (let i = 1; i < data.length; i++) v.push(Math.max(0, data[i] - data[i-1]));
  }
  const max = Math.max(...v, 1), min = Math.min(...v, 0);
  ctx.beginPath();
  ctx.strokeStyle = ch.color;
  ctx.lineWidth = 1.5 * devicePixelRatio;
  for (let i = 0; i < v.length; i++) {
    const x = i / (v.length - 1) * c.width;
    const y = c.height - (v[i] - min) / (max - min || 1) * (c.height - 4) - 2;
    i ? ctx.lineTo(x, y) : ctx.moveTo(x, y);
  }
  ctx.stroke();
  ch.valEl.textContent = v[v.length - 1].toLocaleString();
}
async function tick() {
  try {
    const [series, summary] = await Promise.all([
      fetch("/api/series?tail=600").then(r => r.json()),
      fetch("/api/summary").then(r => r.json()),
    ]);
    document.getElementById("meta").textContent =
      summary.collector + " · sim t=" + (summary.sim_time_ns / 1e9).toFixed(3) + "s · " +
      summary.samples + " samples · " + summary.pauses + " pauses · p99 " +
      (summary.pause_p99_ns / 1e6).toFixed(2) + "ms · max " +
      (summary.pause_max_ns / 1e6).toFixed(2) + "ms";
    for (const ch of CHARTS) draw(ch, series.columns[ch.col] || []);
  } catch (e) {
    document.getElementById("meta").textContent = "disconnected: " + e;
  }
}
tick();
setInterval(tick, 1000);
</script>
</body>
</html>
`
