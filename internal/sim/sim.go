// Package sim assembles whole experiments: a simulated machine, one or
// more JVM processes running benchmark programs under a chosen collector,
// and the signalmem memory-pressure tool of §5.1. It produces the
// metrics the paper reports (execution time, pause times, BMU curves,
// fault counts).
package sim

import (
	"fmt"
	"time"

	"bookmarkgc/internal/collectors"
	"bookmarkgc/internal/core"
	"bookmarkgc/internal/fault"
	"bookmarkgc/internal/gc"
	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/metrics"
	"bookmarkgc/internal/mutator"
	"bookmarkgc/internal/telemetry"
	"bookmarkgc/internal/trace"
	"bookmarkgc/internal/vmm"
)

// CollectorKind names one of the implemented collectors.
type CollectorKind string

// The collectors of §5, plus the paper's BC variants.
const (
	BC           CollectorKind = "BC"
	BCResizeOnly CollectorKind = "BCResizeOnly"
	GenMS        CollectorKind = "GenMS"
	GenCopy      CollectorKind = "GenCopy"
	CopyMS       CollectorKind = "CopyMS"
	MarkSweep    CollectorKind = "MarkSweep"
	SemiSpace    CollectorKind = "SemiSpace"
	GenMSFixed   CollectorKind = "GenMSFixed"
	GenCopyFixed CollectorKind = "GenCopyFixed"

	// Ablation and extension variants of BC (§7, DESIGN.md).
	BCNoAggressive CollectorKind = "BC-NoAggressiveDiscard"
	BCPointerFree  CollectorKind = "BC-PointerFreeVictims"
	BCRegrow       CollectorKind = "BC-Regrow"

	// GenMSAdvisor is GenMS with an Alonso–Appel heap-sizing advisor —
	// the related-work approach (§6) that resizes but does not cooperate.
	GenMSAdvisor CollectorKind = "GenMSAdvisor"
)

// AllKinds lists every collector for sweeps.
var AllKinds = []CollectorKind{BC, GenMS, GenCopy, CopyMS, MarkSweep, SemiSpace}

// KnownKinds lists every implemented collector kind, including the
// fixed-nursery, advisor, and ablation variants — the inventory CLIs
// enumerate (gcsim -list).
var KnownKinds = []CollectorKind{
	BC, BCResizeOnly, GenMS, GenCopy, CopyMS, MarkSweep, SemiSpace,
	GenMSFixed, GenCopyFixed, BCNoAggressive, BCPointerFree, BCRegrow,
	GenMSAdvisor,
}

// fixedNursery sizes Figure 5(b)'s fixed nursery: 4 MB against the
// paper's 77 MB heap, kept proportional so scaled-down experiments
// exercise the same policy.
func fixedNursery(env *gc.Env) int {
	n := env.HeapPages * 4 / 77
	if n < 16 {
		n = 16
	}
	return n
}

// NewCollector instantiates kind on env. An unknown kind is a
// configuration error, returned rather than panicked so sweeps and CLIs
// can report it and move on.
func NewCollector(kind CollectorKind, env *gc.Env) (gc.Collector, error) {
	switch kind {
	case BC:
		return core.New(env, core.Config{}), nil
	case BCResizeOnly:
		return core.New(env, core.Config{ResizeOnly: true}), nil
	case BCNoAggressive:
		return core.New(env, core.Config{NoAggressiveDiscard: true}), nil
	case BCPointerFree:
		return core.New(env, core.Config{Victim: core.VictimPreferPointerFree}), nil
	case BCRegrow:
		return core.New(env, core.Config{Regrow: true}), nil
	case GenMS:
		return collectors.NewGenMS(env), nil
	case GenMSAdvisor:
		return collectors.NewAdvisedGenMS(env), nil
	case GenMSFixed:
		c := collectors.NewGenMS(env)
		c.Nursery.FixedPages = fixedNursery(env)
		return c, nil
	case GenCopy:
		return collectors.NewGenCopy(env), nil
	case GenCopyFixed:
		c := collectors.NewGenCopy(env)
		c.Nursery.FixedPages = fixedNursery(env)
		return c, nil
	case CopyMS:
		return collectors.NewCopyMS(env), nil
	case MarkSweep:
		return collectors.NewMarkSweep(env), nil
	case SemiSpace:
		return collectors.NewSemiSpace(env), nil
	}
	return nil, fmt.Errorf("sim: unknown collector %q", kind)
}

// Pressure describes the memory-pressure schedule of one experiment.
type Pressure struct {
	// InitialBytes are pinned at time StartAt (signalmem's first grab).
	InitialBytes uint64
	// GrowBytes are pinned every GrowEvery until TargetAvailBytes of the
	// machine remain unpinned (§5.3.2 uses 1 MB per 100 ms).
	GrowBytes        uint64
	GrowEvery        time.Duration
	TargetAvailBytes uint64
	// StartAt delays the onset (the paper applies pressure only to the
	// measured iteration).
	StartAt time.Duration
}

// SteadyPressure removes frac of the heap size immediately (Figure 3).
func SteadyPressure(heapBytes uint64, frac float64) *Pressure {
	return &Pressure{InitialBytes: uint64(frac * float64(heapBytes))}
}

// DynamicPressure is §5.3.2's schedule: grab 30 MB, then 1 MB every
// 100 ms until only availBytes of the machine remain available.
func DynamicPressure(availBytes uint64) *Pressure {
	return &Pressure{
		InitialBytes:     30 << 20,
		GrowBytes:        1 << 20,
		GrowEvery:        100 * time.Millisecond,
		TargetAvailBytes: availBytes,
	}
}

// CalibratedDynamicPressure is the §5.3.2 schedule with its ramp scaled
// to the simulated substrate: the paper's wall-clock rate (1 MB/100 ms)
// is glacial next to simulated CPU costs, so the pin interval is chosen
// to complete the ramp within roughly the first third of an unpressured
// run of length baseline — as in the paper's measured iterations.
func CalibratedDynamicPressure(phys, avail, initial, grow uint64, baseline time.Duration) *Pressure {
	if phys <= avail {
		return &Pressure{TargetAvailBytes: avail}
	}
	if initial >= phys-avail {
		initial = (phys - avail) / 2
	}
	if grow == 0 {
		grow = 1 << 20
	}
	steps := (phys - avail - initial) / grow
	if steps == 0 {
		steps = 1
	}
	every := baseline / 3 / time.Duration(steps)
	if every <= 0 {
		every = time.Millisecond
	}
	return &Pressure{
		InitialBytes:     initial,
		GrowBytes:        grow,
		GrowEvery:        every,
		TargetAvailBytes: avail,
	}
}

// SignalMem pins memory on a schedule, like the paper's signalmem tool
// (mmap + touch + mlock at a configured rate).
type SignalMem struct {
	v  *vmm.VMM
	p  Pressure
	tr trace.Tracer
}

// StartSignalMem arms the schedule on the machine's clock. tr records
// each pinning step (nil for none).
func StartSignalMem(v *vmm.VMM, p Pressure, tr trace.Tracer) *SignalMem {
	if tr == nil {
		tr = trace.Nop{}
	}
	s := &SignalMem{v: v, p: p, tr: tr}
	v.Clock.Schedule(p.StartAt, s.initial)
	return s
}

func (s *SignalMem) initial() {
	pin := s.p.InitialBytes
	// Never pin past the configured availability target (nor the whole
	// machine): signalmem stops when the desired level is reached (§5.1).
	total := uint64(s.v.TotalFrames()) * mem.PageSize
	floor := s.p.TargetAvailBytes
	if total > floor && pin > total-floor {
		pin = total - floor
	}
	frames := int(pin / mem.PageSize)
	s.v.Pin(frames)
	s.tr.Point(trace.EvMemoryPinned, int64(frames), int64(s.v.PinnedFrames()))
	if s.p.GrowBytes > 0 {
		s.v.Clock.Schedule(s.v.Clock.Now()+s.p.GrowEvery, s.grow)
	}
}

func (s *SignalMem) grow() {
	avail := uint64(s.v.TotalFrames()-s.v.PinnedFrames()) * mem.PageSize
	if avail <= s.p.TargetAvailBytes {
		return
	}
	want := avail - s.p.TargetAvailBytes
	step := s.p.GrowBytes
	if step > want {
		step = want
	}
	frames := int(step / mem.PageSize)
	s.v.Pin(frames)
	s.tr.Point(trace.EvMemoryPinned, int64(frames), int64(s.v.PinnedFrames()))
	s.v.Clock.Schedule(s.v.Clock.Now()+s.p.GrowEvery, s.grow)
}

// RunConfig describes one JVM-on-one-machine experiment.
type RunConfig struct {
	Collector CollectorKind
	Program   mutator.Spec
	HeapBytes uint64
	PhysBytes uint64
	Pressure  *Pressure // nil = none
	Seed      int64

	// Trace, when non-nil, records GC phase spans and VM-cooperation
	// events on the run's simulated clock. Counters, when non-nil,
	// accumulates event counts and histograms. Both observe only; they
	// never advance the clock, so traced runs are bit-identical to
	// untraced ones.
	Trace    *trace.Recorder
	Counters *trace.Counters

	// Chaos, when non-nil, interposes a fault injector on the process's
	// notification stream (and arms its pressure-spike schedule). The
	// mutator then runs in quanta with injector safepoints between them,
	// so delayed/reordered notifications have delivery points.
	Chaos *fault.Config

	// Workload, when non-nil, supplies the mutator events instead of
	// Program's generator — a recorded or synthesized allocation trace
	// (internal/workload). Program is then informational only.
	Workload mutator.Source

	// Sink observes the generator's event stream (an allocation-trace
	// recorder). Observation happens on the host: it never advances the
	// simulated clock, so recorded runs measure identically to
	// unrecorded ones. Ignored for workloads that are not generators.
	Sink mutator.Sink

	// MarkWorkers is ignored: marking runs on one worker. It stays
	// declared only because the benchmark module still sets it.
	MarkWorkers int

	// Telemetry, when non-nil, samples a live time series on the
	// simulated clock, attributes each pause to its phases, and arms the
	// flight recorder (internal/telemetry). Like Trace, it observes only:
	// an instrumented run is bit-identical to an uninstrumented one.
	Telemetry *telemetry.Collector

	// HeapPolicy names the heap-limit policy (internal/heappolicy:
	// fixed, bc-shrink, membalancer, composed). Empty keeps the
	// collector's default: the fixed configured budget, except BC,
	// whose native bc-shrink rule is the default.
	HeapPolicy string
}

// chaosQuantum is the mutator step size between injector safepoints.
const chaosQuantum = 512

// runQuantum is the step size for uninstrumented single-JVM runs.
const runQuantum = 4096

// Result is the measured outcome of one run.
type Result struct {
	Config      RunConfig
	Timeline    metrics.Timeline
	Mutator     mutator.Result
	GCStats     gc.Stats
	ProcStats   vmm.ProcStats
	ElapsedSecs float64
	Counters    *trace.Counters // the registry passed in, if any

	// Err is non-nil when the run failed rather than completed: an
	// unknown collector kind, or gc.ErrOutOfMemory recovered at the run
	// boundary (the rest of the Result then holds the partial
	// measurements up to the failure). Sweeps check it per configuration
	// instead of dying wholesale.
	Err error

	// Faults holds the injector's counts when Chaos was configured.
	Faults *fault.Stats
}

// Run executes one configuration to completion: one tenant on its own
// machine, stepped until its workload ends or fails.
func Run(cfg RunConfig) Result {
	if err := checkPhys(cfg.PhysBytes); err != nil {
		return Result{Config: cfg, Err: err}
	}
	m := newMachine(cfg.PhysBytes, cfg.Trace)
	var tr trace.Tracer
	if cfg.Trace != nil {
		tr = cfg.Trace
	}
	t, err := m.admit(string(cfg.Collector), cfg, tr)
	if err != nil {
		return Result{Config: cfg, Err: err}
	}
	defer t.release()
	if cfg.Sink != nil {
		if sw, ok := t.run.(interface{ SetSink(mutator.Sink) }); ok {
			sw.SetSink(cfg.Sink)
		}
	}
	if cfg.Pressure != nil {
		StartSignalMem(m.v, *cfg.Pressure, t.env.Trace)
	}
	quantum := runQuantum
	if t.inj != nil {
		quantum = chaosQuantum
	}
	for t.step(quantum) {
	}
	t.retire()
	return t.result()
}

// MultiConfig describes n identical JVMs sharing one machine (§5.3.3).
type MultiConfig struct {
	Collector CollectorKind
	Program   mutator.Spec
	HeapBytes uint64
	PhysBytes uint64
	JVMs      int
	Quantum   int // allocations per scheduling quantum
	Seed      int64

	// Trace gives each JVM its own named thread in one shared trace;
	// Counters is one registry shared by every JVM. Both are optional.
	Trace    *trace.Recorder
	Counters *trace.Counters

	// Workload, when non-nil, supplies every JVM's events instead of
	// Program's generator; each instance replays its own stream.
	Workload mutator.Source

	// HeapPolicy names every JVM's heap-limit policy ("" = default).
	HeapPolicy string
}

// RunMulti round-robins the JVMs on one simulated CPU until all complete,
// returning one Result per JVM. Total elapsed time is shared; per-JVM
// pause statistics are their own: a fleet of n identical tenants with
// no arbitration, no chaos and no ladder.
func RunMulti(cfg MultiConfig) []Result {
	tenants := make([]TenantSpec, cfg.JVMs)
	workloads := make([]mutator.Source, cfg.JVMs) // nil entries: Program
	for i := range tenants {
		tenants[i] = TenantSpec{
			Name:      fmt.Sprintf("%s-%d", cfg.Collector, i),
			Collector: cfg.Collector,
			Program:   cfg.Program,
			HeapBytes: cfg.HeapBytes,
			// Tenant i runs with this plus i: RunMulti's Seed+i.
			Seed:       cfg.Seed,
			HeapPolicy: cfg.HeapPolicy,
		}
		workloads[i] = cfg.Workload
	}
	fr := RunFleet(FleetConfig{
		Spec: FleetSpec{
			Tenants:   tenants,
			PhysBytes: cfg.PhysBytes,
			Quantum:   cfg.Quantum,
		},
		Trace:     cfg.Trace,
		Counters:  cfg.Counters,
		Workloads: workloads,
	})
	if fr.Err != nil {
		// Same kind for every JVM: the whole configuration is invalid.
		return []Result{{Config: RunConfig{Collector: cfg.Collector, Program: cfg.Program,
			HeapBytes: cfg.HeapBytes, PhysBytes: cfg.PhysBytes}, Err: fr.Err}}
	}
	return fr.Tenants
}
