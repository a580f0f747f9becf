package runner

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"
)

// Options configures a Runner.
type Options struct {
	// Workers bounds concurrent jobs; <= 0 means GOMAXPROCS.
	Workers int
	// Timeout is the per-job wall-clock limit (0 = none). A timed-out
	// job yields an errored, non-cacheable Result; the worker moves on
	// while the abandoned simulation goroutine finishes in the
	// background, so concurrency can transiently exceed Workers after a
	// timeout.
	Timeout time.Duration
	// Cache, when non-nil, persists every cacheable result and serves
	// hits from previous (or interrupted) sweeps.
	Cache *Cache
	// OnProgress, when non-nil, is called after each job resolves (run
	// or cache hit). It runs on worker goroutines; keep it fast.
	OnProgress func(Progress)
	// Host is handed to every job this Runner executes. Observers in it
	// are shared, so set them only for a Runner that executes one job.
	Host Host
}

// Progress is a point-in-time view of one RunAll batch.
type Progress struct {
	Done, Total int // jobs resolved / in the batch
	Hits        int // of Done, served from memo or store
	Elapsed     time.Duration
	ETA         time.Duration // zero until one job resolves, and when done
}

// Stats accumulates across every batch a Runner executes.
type Stats struct {
	Submitted int // jobs seen (including duplicates and hits)
	Executed  int // simulations actually run
	MemHits   int // served from this process's memo
	DiskHits  int // served from the persistent store
	Errors    int // engine-level failures (config, panic, timeout)
	Timeouts  int
}

// Hits returns all cache hits (memo + store).
func (s Stats) Hits() int { return s.MemHits + s.DiskHits }

// Failure names one executed job that did not complete: the job failed
// in the engine (Result.Err) or one of its runs failed (RunData.Err).
type Failure struct {
	Job  Job
	Hash string
	Err  string // the first line of the job's first error
}

// Runner executes jobs on a bounded worker pool, memoizing results by
// content hash. Safe for concurrent use; results it returns are shared
// and must be treated as immutable.
type Runner struct {
	opts     Options
	mu       sync.Mutex
	memo     map[string]*Result
	stats    Stats
	failures []Failure
}

// New returns a Runner with opts.
func New(opts Options) *Runner {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{opts: opts, memo: make(map[string]*Result)}
}

// Stats returns a snapshot of the runner's counters.
func (r *Runner) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Failures returns every failed job this runner executed, in the order
// they finished. Cache hits are not executions, so a failure served from
// the memo is named once.
func (r *Runner) Failures() []Failure {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.failures)
}

// RunAll resolves every job and returns results in job order — cache
// hits immediately, the rest executed concurrently, duplicates (by
// hash) executed once. The returned slice is deterministic in content
// regardless of worker count; only wall-clock metadata differs.
func (r *Runner) RunAll(jobs []Job) []*Result {
	start := time.Now()
	out := make([]*Result, len(jobs))
	hashes := make([]string, len(jobs))
	var leaders []int
	followers := make(map[string][]int)
	hits := 0

	r.mu.Lock()
	for i, j := range jobs {
		h := j.Hash()
		hashes[i] = h
		r.stats.Submitted++
		if res, ok := r.lookupLocked(h); ok {
			out[i] = res
			hits++
			continue
		}
		if _, dup := followers[h]; dup {
			followers[h] = append(followers[h], i)
			continue
		}
		followers[h] = nil
		leaders = append(leaders, i)
	}
	r.mu.Unlock()

	done := hits
	r.emitProgress(start, done, len(jobs), hits)

	if len(leaders) > 0 {
		workers := r.opts.Workers
		if workers > len(leaders) {
			workers = len(leaders)
		}
		idxCh := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idxCh {
					res := r.runOne(jobs[i])
					if r.opts.Cache != nil {
						// Best-effort: a full disk degrades resume, not
						// the sweep.
						_ = r.opts.Cache.Put(res)
					}
					r.mu.Lock()
					r.memo[hashes[i]] = res
					out[i] = res
					r.recordLocked(jobs[i], res)
					done += 1 + len(followers[hashes[i]])
					d := done
					r.mu.Unlock()
					r.emitProgress(start, d, len(jobs), hits)
				}
			}()
		}
		for _, i := range leaders {
			idxCh <- i
		}
		close(idxCh)
		wg.Wait()
	}

	r.mu.Lock()
	for h, idxs := range followers {
		for _, i := range idxs {
			out[i] = r.memo[h]
		}
	}
	r.mu.Unlock()
	return out
}

// lookupLocked serves a hash from the memo or the persistent store,
// promoting store hits into the memo. Caller holds r.mu.
func (r *Runner) lookupLocked(h string) (*Result, bool) {
	if res, ok := r.memo[h]; ok {
		r.stats.MemHits++
		return res, true
	}
	if r.opts.Cache != nil {
		if res, ok := r.opts.Cache.Get(h); ok {
			r.memo[h] = res
			r.stats.DiskHits++
			return res, true
		}
	}
	return nil, false
}

// recordLocked counts j's fresh result in the runner's Stats and keeps
// it among the Failures if it failed. Caller holds r.mu.
func (r *Runner) recordLocked(j Job, res *Result) {
	r.stats.Executed++
	if res.Err != "" {
		r.stats.Errors++
	}
	if res.TimedOut {
		r.stats.Timeouts++
	}
	if msg := res.FirstErr(); msg != "" {
		r.failures = append(r.failures, Failure{Job: j, Hash: res.Hash, Err: msg})
	}
}

// runOne executes one job, applying the per-job timeout.
func (r *Runner) runOne(j Job) *Result {
	start := time.Now()
	var res *Result
	if r.opts.Timeout > 0 {
		ch := make(chan *Result, 1)
		go func() { ch <- ExecuteOn(j, r.opts.Host) }()
		select {
		case res = <-ch:
		case <-time.After(r.opts.Timeout):
			res = &Result{
				Hash:     j.Hash(),
				Err:      fmt.Sprintf("timeout after %v", r.opts.Timeout),
				TimedOut: true,
			}
		}
	} else {
		res = ExecuteOn(j, r.opts.Host)
	}
	res.WallNS = int64(time.Since(start))
	return res
}

func (r *Runner) emitProgress(start time.Time, done, total, hits int) {
	if r.opts.OnProgress == nil || total == 0 {
		return
	}
	p := Progress{Done: done, Total: total, Hits: hits, Elapsed: time.Since(start)}
	if done > 0 && done < total {
		p.ETA = time.Duration(float64(p.Elapsed) / float64(done) * float64(total-done))
	}
	r.opts.OnProgress(p)
}
