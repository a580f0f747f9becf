package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"bookmarkgc/internal/gc"
	"bookmarkgc/internal/heap"
	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/mutator"
	"bookmarkgc/internal/objmodel"
	"bookmarkgc/internal/runner"
	"bookmarkgc/internal/sim"
	"bookmarkgc/internal/telemetry"
	"bookmarkgc/internal/trace"
	"bookmarkgc/internal/vmm"
	gctrace "bookmarkgc/internal/workload"
)

// Layer probes: short fixed drivers that call one layer's public
// functions directly, so a layer has a number of its own even where a
// whole job cannot be cut open from outside. Each probe is repeated
// probeRepeats times and reports its least-disturbed repeat.
const probeRepeats = 5

// probeCPU runs body probeRepeats times on a locked thread and returns
// the lowest thread-CPU nanoseconds of one call.
func probeCPU(body func()) float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var ns []float64
	for i := 0; i < probeRepeats; i++ {
		t0 := threadCPU()
		body()
		ns = append(ns, float64(threadCPU()-t0))
	}
	return lowest(ns)
}

// probeSink keeps results alive so the compiler cannot drop the loops.
var probeSink uint64

// residentSpace returns a process on a machine large enough that pages
// touched once stay resident, with the Space's fast-touch path armed as
// vmm.NewProc arms it for every simulated JVM.
func residentSpace(pages int) (*vmm.Proc, mem.Addr) {
	v := vmm.New(vmm.NewClock(), uint64(4*pages)*mem.PageSize, vmm.DefaultCosts())
	p := v.NewProc("probe", uint64(2*pages+1)*mem.PageSize)
	base := mem.Addr(mem.PageSize) // page 0 is the null page
	for i := 0; i < 2*pages; i++ {
		p.Space().WriteWord(base+mem.Addr(i)*mem.PageSize, 1)
	}
	return p, base
}

// probeMem measures host ns per simulated word access on resident pages.
func probeMem(m map[string]float64) {
	const pages, sweeps = 512, 8
	p, base := residentSpace(pages)
	s := p.Space()
	defer s.Release()
	words := uint64(pages) * mem.PageSize / mem.WordSize
	perWord := func(ns float64) float64 { return ns / float64(sweeps*words) }

	m["mem.read_ns_per_word"] = perWord(probeCPU(func() {
		var sum uint64
		for k := 0; k < sweeps; k++ {
			for w := uint64(0); w < words; w++ {
				sum += s.ReadWord(base + mem.Addr(w*mem.WordSize))
			}
		}
		probeSink += sum
	}))
	m["mem.write_ns_per_word"] = perWord(probeCPU(func() {
		for k := 0; k < sweeps; k++ {
			for w := uint64(0); w < words; w++ {
				s.WriteWord(base+mem.Addr(w*mem.WordSize), w)
			}
		}
	}))
	// Object-sized copies (64 words), as the copying collectors issue them.
	const chunk = 64
	dst := base + mem.Addr(pages)*mem.PageSize
	m["mem.copy_ns_per_word"] = perWord(probeCPU(func() {
		for k := 0; k < sweeps; k++ {
			for w := uint64(0); w < words; w += chunk {
				off := mem.Addr(w * mem.WordSize)
				s.CopyWords(dst+off, base+off, chunk*mem.WordSize)
			}
		}
	}))
}

// probeVMM measures the VMM's two paths: a touch of a resident page, and
// a fault on a machine half the size of the working set with no handler
// registered — fault service, reclaim and the clock scan together.
func probeVMM(m map[string]float64) {
	const pages, sweeps = 512, 64
	p, _ := residentSpace(pages)
	m["vmm.touch_resident_ns"] = probeCPU(func() {
		for k := 0; k < sweeps; k++ {
			for pg := mem.PageID(1); pg <= pages; pg++ {
				p.Touch(pg, false)
			}
		}
	}) / float64(sweeps*pages)
	p.Space().Release()

	const frames, cycles = 256, 16
	v := vmm.New(vmm.NewClock(), frames*mem.PageSize, vmm.DefaultCosts())
	q := v.NewProc("probe", (2*frames+1)*mem.PageSize)
	defer q.Space().Release()
	var faults uint64
	ns := probeCPU(func() {
		before := q.Stats()
		for k := 0; k < cycles; k++ {
			for pg := mem.PageID(1); pg <= 2*frames; pg++ {
				q.Touch(pg, true)
			}
		}
		after := q.Stats()
		faults = after.MajorFaults + after.MinorFaults - before.MajorFaults - before.MinorFaults
	})
	if faults > 0 {
		m["vmm.fault_ns"] = ns / float64(faults)
	}
}

// markProbeTracer times the mark phase of a collection from outside, on
// the wall clock: with two workers the work is on two threads.
type markProbeTracer struct {
	start time.Time
	marks []float64 // ns per mark phase
}

func (t *markProbeTracer) Enabled() bool { return true }
func (t *markProbeTracer) Begin(p trace.Phase) {
	if p == trace.PhaseMark {
		t.start = time.Now()
	}
}
func (t *markProbeTracer) End(p trace.Phase) {
	if p == trace.PhaseMark {
		t.marks = append(t.marks, float64(time.Since(t.start)))
	}
}
func (t *markProbeTracer) Point(trace.Event, int64, int64) {}

// markWall builds a binary tree of objects live objects under MarkSweep
// and returns the lowest wall nanoseconds of one full-heap mark.
func markWall(objects, workers int) (float64, error) {
	const heapBytes = 16 << 20
	v := vmm.New(vmm.NewClock(), 4*heapBytes, vmm.DefaultCosts())
	env := gc.NewEnv(v, "probe", heapBytes)
	tr := &markProbeTracer{}
	env.Trace = tr
	env.MarkWorkers = workers
	types := mutator.DeclareTypes(env)
	col, err := sim.NewCollector(sim.MarkSweep, env)
	if err != nil {
		return 0, err
	}
	defer func() {
		env.ReleaseScratch(col.Roots())
		env.Proc.Space().Release()
	}()
	// MarkSweep never moves objects, so plain references stay valid; each
	// node hangs off an earlier one, the first off a root.
	nodes := make([]objmodel.Ref, objects)
	for i := range nodes {
		nodes[i] = col.Alloc(types.Node, 0)
		if i == 0 {
			col.Roots().Add(nodes[0])
		} else {
			col.WriteRef(nodes[(i-1)/2], (i-1)%2, nodes[i])
		}
	}
	tr.marks = nil
	for i := 0; i < probeRepeats; i++ {
		col.Collect(true)
	}
	if len(tr.marks) != probeRepeats {
		return 0, fmt.Errorf("mark probe: %d mark phases in %d collections", len(tr.marks), probeRepeats)
	}
	return lowest(tr.marks), nil
}

func probeMark(m map[string]float64) error {
	const objects = 60_000
	one, err := markWall(objects, 1)
	if err != nil {
		return err
	}
	two, err := markWall(objects, 2)
	if err != nil {
		return err
	}
	m["gc.mark_ns_per_object"] = one / objects
	m["gc.mark_speedup_2w"] = one / two
	return nil
}

// probeHeap measures the segregated-fit space and the large object space
// directly, on the address space of a machine with memory to spare: the
// allocators' own bookkeeping, which lives in simulated memory too.
func probeHeap(m map[string]float64) error {
	const objects, largeAllocs, largeWords = 40_000, 200, 4096
	const heapBytes = 8 << 20
	env := gc.NewEnv(vmm.New(vmm.NewClock(), 8*heapBytes, vmm.DefaultCosts()), "probe", heapBytes)
	s, l, classes := env.Space, env.Layout, env.Classes
	defer s.Release()
	tb := env.Types
	node := tb.Scalar("node", 4, 0, 1)
	data := tb.Array("data", false)
	cl, ok := classes.ForSize(node.TotalBytes(0))
	if !ok {
		return fmt.Errorf("heap probe: no size class for a node")
	}

	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var allocNS, sweepNS []float64
	for r := 0; r < probeRepeats; r++ {
		ss := heap.NewSuperSpace(s, classes, l.MatureBase, l.MatureEnd)
		t0 := threadCPU()
		for i := 0; i < objects; i++ {
			o := ss.Alloc(node, 0, cl)
			if o == mem.Nil {
				if ss.AcquireSuper(cl, node.Kind) < 0 {
					return fmt.Errorf("heap probe: mature space full after %d objects", i)
				}
				o = ss.Alloc(node, 0, cl)
			}
			probeSink += uint64(o)
		}
		t1 := threadCPU()
		supers := ss.InUseSupers()
		// Nothing is marked in epoch 1: the sweep frees every block.
		ss.Sweep(1)
		t2 := threadCPU()
		allocNS = append(allocNS, float64(t1-t0)/objects)
		sweepNS = append(sweepNS, float64(t2-t1)/float64(supers))
	}
	m["heap.alloc_ns_per_object"] = lowest(allocNS)
	m["heap.sweep_ns_per_superpage"] = lowest(sweepNS)

	los := heap.NewLOS(s, l.LOSBase, l.LOSEnd)
	m["heap.los_alloc_ns"] = probeCPU(func() {
		for i := 0; i < largeAllocs; i++ {
			o := los.Alloc(data, largeWords)
			if o == mem.Nil {
				panic("heap probe: large object space full")
			}
			los.Free(o)
		}
	}) / largeAllocs
	return nil
}

// probeWorkload measures the trace engine: synthesizing a .gctrace and
// decoding one (Verify is the public full-decode path).
func probeWorkload(m map[string]float64, seed int64) error {
	params := gctrace.SynthParams{Model: "markov", Allocs: 20_000, Live: 800, Seed: seed, Name: "probe"}
	var buf bytes.Buffer
	var synthErr error
	synthNS := probeCPU(func() {
		buf.Reset()
		if err := gctrace.Synthesize(&buf, params); err != nil {
			synthErr = err
		}
	})
	if synthErr != nil {
		return fmt.Errorf("workload probe: %w", synthErr)
	}
	var events uint64
	var decodeErr error
	decodeNS := probeCPU(func() {
		rd, err := gctrace.NewReader(bytes.NewReader(buf.Bytes()))
		if err == nil {
			_, err = gctrace.Verify(rd)
		}
		if err != nil {
			decodeErr = err
			return
		}
		events = rd.Events()
	})
	if decodeErr != nil || events == 0 {
		return fmt.Errorf("workload probe: decoding the synthesized trace: %v (%d events)", decodeErr, events)
	}
	m["workload.synth_ns_per_event"] = synthNS / float64(events)
	m["workload.decode_ns_per_event"] = decodeNS / float64(events)
	return nil
}

// probeJob is the small unpressured run the runner and overhead probes
// repeat.
func probeJob(seed int64) sim.RunConfig {
	prog, _ := mutator.ByName("compress")
	prog = prog.Scale(0.02)
	return sim.RunConfig{
		Collector: sim.BC, Program: prog,
		HeapBytes: mem.RoundUpPage(2 * prog.MinHeap), PhysBytes: mem.RoundUpPage(8 * prog.MinHeap),
		Seed: seed, MarkWorkers: 1,
	}
}

// probeRunner measures the runner's dispatch cost on a job list that is
// already memoised: hashing, lookup and result assembly, no simulation.
func probeRunner(m map[string]float64, seed int64) error {
	const jobs, rounds = 16, 50
	cfg := probeJob(seed)
	list := make([]runner.Job, jobs)
	for i := range list {
		list[i] = runner.Job{
			Collector: cfg.Collector, Program: cfg.Program,
			HeapBytes: cfg.HeapBytes, PhysBytes: cfg.PhysBytes, Seed: seed + int64(i),
		}
	}
	rn := runner.New(runner.Options{Workers: 1})
	for _, res := range rn.RunAll(list) {
		if !res.OK() {
			return fmt.Errorf("runner probe: job failed: %s", res.Err)
		}
	}
	ns := probeCPU(func() {
		for r := 0; r < rounds; r++ {
			probeSink += uint64(len(rn.RunAll(list)))
		}
	})
	m["runner.cached_dispatch_us_per_job"] = ns / (jobs * rounds) / 1e3
	return nil
}

// overheadRounds is how often probeOverheads runs each variant. The
// effect it measures is a few percent, so it needs more repeats than the
// other probes, interleaved so that all variants see the same regimes.
const overheadRounds = 15

// probeOverheads runs the same job bare, with the telemetry collector
// and counter registry attached, and with the trace recorder attached.
func probeOverheads(m map[string]float64, seed int64) error {
	variants := []func(*sim.RunConfig){
		func(*sim.RunConfig) {},
		func(c *sim.RunConfig) {
			c.Telemetry = telemetry.New(telemetry.Config{})
			c.Counters = trace.NewCounters()
		},
		func(c *sim.RunConfig) { c.Trace = trace.NewRecorder(nil, "probe") },
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	ns := make([][]float64, len(variants))
	for r := 0; r < overheadRounds; r++ {
		for i, decorate := range variants {
			cfg := probeJob(seed)
			decorate(&cfg)
			t0 := threadCPU()
			res := sim.Run(cfg)
			ns[i] = append(ns[i], float64(threadCPU()-t0))
			if res.Err != nil {
				return fmt.Errorf("overhead probe: %w", res.Err)
			}
		}
	}
	bare := lowest(ns[0])
	m["telemetry.overhead_ratio"] = lowest(ns[1]) / bare
	m["trace.recorder_overhead_ratio"] = lowest(ns[2]) / bare
	return nil
}

// runProbes fills m with every probe metric. The graph and trace shapes
// come from the benchmark seed like every other input.
func runProbes(m map[string]float64, seed int64) error {
	probeMem(m)
	probeVMM(m)
	for _, p := range []func() error{
		func() error { return probeMark(m) },
		func() error { return probeHeap(m) },
		func() error { return probeWorkload(m, seed) },
		func() error { return probeRunner(m, seed) },
		func() error { return probeOverheads(m, seed) },
	} {
		if err := p(); err != nil {
			return err
		}
	}
	return nil
}
