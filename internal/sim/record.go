package sim

import (
	"bufio"
	"os"

	"bookmarkgc/internal/workload"
)

// RecordTrace executes cfg and writes its complete allocation trace
// (every allocation, pointer store, data access and root update, plus
// the mutator's data checksum) to path. The returned Result is the
// recording run's; workload.Open replays the file through any
// collector, reproducing the recorded run exactly under the recording
// configuration. cfg.Counters, when set, also counts the trace's events
// and blocks. When the run or any write fails, nothing is left at path.
func RecordTrace(path string, cfg RunConfig) (r Result, err error) {
	f, err := os.Create(path)
	if err != nil {
		return Result{}, err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			os.Remove(path)
		}
	}()
	bw := bufio.NewWriter(f)
	wr, err := workload.NewWriter(bw, workload.Meta{
		Name:      cfg.Program.Name,
		Source:    "record",
		Program:   &cfg.Program,
		Seed:      cfg.Seed,
		Collector: string(cfg.Collector),
		HeapBytes: cfg.HeapBytes,
		PhysBytes: cfg.PhysBytes,
	})
	if err != nil {
		return Result{}, err
	}
	wr.Counters = cfg.Counters
	rec := workload.NewRecorder(wr)
	cfg.Sink = rec
	if r = Run(cfg); r.Err != nil {
		return r, r.Err
	}
	if err := rec.Close(r.Mutator); err != nil {
		return r, err
	}
	return r, bw.Flush()
}
