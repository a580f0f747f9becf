// Command experiments regenerates the tables and figures of "Garbage
// Collection Without Paging" (PLDI 2005) on the simulated substrate,
// sweeping each experiment's configuration matrix on a parallel,
// cache-aware, resumable job runner.
//
// Usage:
//
//	experiments [-run id[,id...]] [-scale f] [-seed n] [-list] [-counters]
//	            [-jobs n] [-cache-dir dir] [-resume]
//	            [-timeout d] [-format text|json] [-expect-cached] [-http addr]
//
// Experiment ids: table1, fig2, fig2x, fig3, fig3x, fig4, fig5, fig6,
// fig7, ablate, replay, fleet, heappolicy; "all" runs everything. Scale
// 1.0 is paper scale (1 GB machine); the default 0.25 preserves the
// shapes at a fraction of the runtime.
//
//	-run ids        comma-separated experiment ids, or all (default all)
//	-scale f        workload and memory scale (default 0.25)
//	-seed n         workload random seed (default 1)
//	-list           list the experiments and exit
//	-counters       collect event counters and add them to report notes
//	-jobs n         run up to n simulations concurrently (default GOMAXPROCS)
//	-cache-dir d    persist per-job results as JSONL under d ('' disables)
//	-resume         serve results cached by a previous (or interrupted) run
//	-timeout d      abandon any single job after d wall time (0 = none)
//	-format json    emit reports as one JSON document instead of text tables
//	-expect-cached  exit 3 unless every job was served from cache
//	-http addr      serve live sweep progress (/api/progress) and
//	                /debug/pprof on addr while the sweep runs
//	-cpuprofile f, -memprofile f  write host pprof profiles of the whole
//	                command (written on every exit, failures included)
//
// Reports go to stdout; progress, timing, and runner telemetry go to
// stderr, where each job that failed is named on a line of its own
// before the runner summary. Report bytes are a pure function of (-run,
// -scale, -seed, -counters, -format): identical for any -jobs value,
// fresh or resumed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"bookmarkgc/internal/bench"
	"bookmarkgc/internal/hostprof"
	"bookmarkgc/internal/runner"
	"bookmarkgc/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it returns the exit code main leaves with, so the
// deferred profile flush covers every path and a test can call it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		ids      = fs.String("run", "all", "comma-separated experiment ids, or 'all'")
		scale    = fs.Float64("scale", 0.25, "workload/memory scale (1.0 = paper scale)")
		seed     = fs.Int64("seed", 1, "workload random seed")
		list     = fs.Bool("list", false, "list experiments and exit")
		counters = fs.Bool("counters", false, "collect event counters and add them to report notes")
		jobs     = fs.Int("jobs", runtime.GOMAXPROCS(0), "maximum concurrent simulation jobs")
		cacheDir = fs.String("cache-dir", ".expcache", "directory for the persistent result store ('' disables)")
		resume   = fs.Bool("resume", false, "reuse results persisted by a previous run in -cache-dir")
		timeout  = fs.Duration("timeout", 0, "per-job wall-clock limit (0 = none)")
		format   = fs.String("format", "text", "report output format: text or json")
		expect   = fs.Bool("expect-cached", false, "exit 3 unless every job was served from cache (resume smoke test)")
		httpAddr = fs.String("http", "", "serve live sweep progress (/api/progress) and /debug/pprof on this address")
	)
	prof := hostprof.Register(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := prof.Start(); err != nil {
		fmt.Fprintf(stderr, "experiments: %v\n", err)
		return 1
	}
	defer prof.Stop(stderr)

	fail := func(fmtStr string, args ...any) int {
		fmt.Fprintf(stderr, "experiments: "+fmtStr+"\n", args...)
		return 2
	}
	if *format != "text" && *format != "json" {
		return fail("-format %q must be text or json", *format)
	}
	if *resume && *cacheDir == "" {
		return fail("-resume needs a persistent store; set -cache-dir")
	}

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Fprintf(stdout, "%-8s %s\n", e.ID, e.Desc)
		}
		return 0
	}

	var selected []bench.Experiment
	if *ids == "all" {
		selected = bench.Experiments()
	} else {
		for _, id := range strings.Split(*ids, ",") {
			e, ok := bench.ByID(strings.TrimSpace(id))
			if !ok {
				return fail("unknown experiment %q (try -list)", id)
			}
			selected = append(selected, e)
		}
	}

	var cache *runner.Cache
	if *cacheDir != "" {
		var err error
		cache, err = runner.OpenCache(*cacheDir, *resume)
		if err != nil {
			return fail("%v", err)
		}
		defer cache.Close()
	}
	// The progress tracker feeds both the stderr printer and, when -http
	// is set, the /api/progress endpoint that remote dashboards poll.
	tracker := &progressTracker{print: progressPrinter(stderr)}
	rn := runner.New(runner.Options{
		Workers:    *jobs,
		Timeout:    *timeout,
		Cache:      cache,
		OnProgress: tracker.observe,
	})
	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			return fail("-http: %v", err)
		}
		fmt.Fprintf(stderr, "experiments: serving progress on http://%s/api/progress\n", ln.Addr())
		go func() {
			srv := &http.Server{Handler: telemetry.NewMux(telemetry.ServerOptions{
				Progress: tracker.snapshot,
				Title:    "experiments",
			})}
			if err := srv.Serve(ln); err != nil {
				fmt.Fprintf(stderr, "experiments: http server: %v\n", err)
			}
		}()
	}

	opts := bench.Options{Scale: *scale, Seed: *seed, Counters: *counters}
	if *format == "text" {
		fmt.Fprintf(stdout, "bookmarking collection experiments (scale %.2f, seed %d)\n\n", *scale, *seed)
	}

	var allReports []bench.Report
	// failed names each failed job under the experiment that executed it,
	// for the stderr lines that precede the runner summary.
	var failed []string
	for _, e := range selected {
		tracker.setExperiment(e.ID)
		start := time.Now()
		seen := len(rn.Failures())
		reports := e.Run(opts, rn)
		wall := time.Since(start)
		fresh := rn.Failures()[seen:]
		slices.SortFunc(fresh, func(a, b runner.Failure) int { return strings.Compare(a.Hash, b.Hash) })
		for _, f := range fresh {
			failed = append(failed, fmt.Sprintf("failed job %.12s %s: %s: %s", f.Hash, e.ID, f.Job.Describe(), f.Err))
		}
		if *format == "text" {
			for i := range reports {
				reports[i].Print(stdout)
			}
		} else {
			allReports = append(allReports, reports...)
		}
		fmt.Fprintf(stderr, "[%s completed in %.1fs wall time]\n", e.ID, wall.Seconds())
	}

	if *format == "json" {
		doc := struct {
			Scale   float64        `json:"scale"`
			Seed    int64          `json:"seed"`
			Reports []bench.Report `json:"reports"`
		}{*scale, *seed, allReports}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			return fail("encoding reports: %v", err)
		}
	}

	for _, line := range failed {
		fmt.Fprintln(stderr, line)
	}
	st := rn.Stats()
	fmt.Fprintf(stderr,
		"runner: %d jobs submitted, %d executed, %d cache hits (%d memo, %d store), %d errors, %d timeouts\n",
		st.Submitted, st.Executed, st.Hits(), st.MemHits, st.DiskHits, st.Errors, st.Timeouts)

	if *expect && st.Executed > 0 {
		fmt.Fprintf(stderr, "experiments: -expect-cached: %d jobs were executed rather than served from cache\n", st.Executed)
		return 3
	}
	return 0
}

// progressTracker fans runner progress out to the stderr printer and
// keeps the latest batch state for the /api/progress endpoint.
type progressTracker struct {
	mu         sync.Mutex
	print      func(runner.Progress)
	experiment string
	last       runner.Progress
}

func (t *progressTracker) setExperiment(id string) {
	t.mu.Lock()
	t.experiment = id
	t.last = runner.Progress{}
	t.mu.Unlock()
}

func (t *progressTracker) observe(p runner.Progress) {
	t.mu.Lock()
	t.last = p
	t.mu.Unlock()
	t.print(p)
}

// snapshot is the telemetry.ServerOptions.Progress hook: a JSON-ready
// view of the current experiment's batch.
func (t *progressTracker) snapshot() interface{} {
	t.mu.Lock()
	defer t.mu.Unlock()
	return struct {
		Experiment string  `json:"experiment"`
		Done       int     `json:"done"`
		Total      int     `json:"total"`
		CacheHits  int     `json:"cache_hits"`
		ElapsedSec float64 `json:"elapsed_secs"`
		ETASec     float64 `json:"eta_secs"`
	}{t.experiment, t.last.Done, t.last.Total, t.last.Hits,
		t.last.Elapsed.Seconds(), t.last.ETA.Seconds()}
}

// progressPrinter returns a throttled stderr progress callback:
// done/total with cache hits and an ETA, at most ~5 lines a second,
// always printing the final state of a batch.
func progressPrinter(stderr io.Writer) func(runner.Progress) {
	var mu sync.Mutex
	var last time.Time
	return func(p runner.Progress) {
		mu.Lock()
		defer mu.Unlock()
		now := time.Now()
		if p.Done < p.Total && now.Sub(last) < 200*time.Millisecond {
			return
		}
		last = now
		line := fmt.Sprintf("\rsweep: %d/%d jobs", p.Done, p.Total)
		if p.Hits > 0 {
			line += fmt.Sprintf(" (%d cached)", p.Hits)
		}
		if p.ETA > 0 {
			line += fmt.Sprintf(", eta %s", p.ETA.Round(time.Second))
		}
		fmt.Fprint(stderr, line)
		if p.Done == p.Total {
			fmt.Fprintln(stderr)
		}
	}
}
