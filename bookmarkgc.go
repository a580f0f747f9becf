// Package bookmarkgc is a from-scratch reproduction of "Garbage
// Collection Without Paging" (Hertz, Feng & Berger, PLDI 2005): the
// bookmarking collector, the five MMTk baseline collectors it is
// evaluated against, and the substrate they need — a simulated machine
// with a cooperative virtual memory manager (approximate-LRU replacement,
// eviction/reload notifications, vm_relinquish, madvise discard), a
// Jikes-style object model with superpage-organized segregated size
// classes, the paper's benchmark workloads, and a harness that
// regenerates every table and figure of the evaluation.
//
// Quick start:
//
//	m := bookmarkgc.NewMachine(256 << 20) // 256 MB machine
//	rt := m.NewRuntime("demo", bookmarkgc.BC, 32<<20)
//	node := rt.DefineScalar("node", 4, 0, 1) // refs in words 0,1
//	obj := rt.Alloc(node)
//	root := rt.NewRoot(obj)
//	...
//	fmt.Println(rt.Timeline())
//
// The experiments of the paper are available through Experiments and the
// cmd/experiments binary; custom workloads can be built either on the
// Runtime object API or the Program/Run layer (see examples/).
package bookmarkgc

import (
	"time"

	"bookmarkgc/internal/bench"
	"bookmarkgc/internal/gc"
	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/metrics"
	"bookmarkgc/internal/mutator"
	"bookmarkgc/internal/objmodel"
	"bookmarkgc/internal/sim"
	"bookmarkgc/internal/vmm"
	"bookmarkgc/internal/workload"
)

// Ref is a reference to a managed heap object. The zero Ref is nil.
type Ref = mem.Addr

// Nil is the null reference.
const Nil Ref = mem.Nil

// Type describes a class of heap objects (scalars with a pointer map, or
// arrays).
type Type = objmodel.Type

// Collector is the interface every implemented garbage collector
// satisfies; the mutator-facing allocation and access operations.
type Collector = gc.Collector

// Stats are a collector's counters (collections, allocation volume,
// bookmarking activity).
type Stats = gc.Stats

// Timeline is a run's pause record with BMU/MMU analysis.
type Timeline = metrics.Timeline

// CollectorKind names an implemented collector.
type CollectorKind = sim.CollectorKind

// The available collectors: the bookmarking collector (with its variants)
// and the five baselines of the paper's §5.
const (
	BC           = sim.BC
	BCResizeOnly = sim.BCResizeOnly
	GenMS        = sim.GenMS
	GenCopy      = sim.GenCopy
	CopyMS       = sim.CopyMS
	MarkSweep    = sim.MarkSweep
	SemiSpace    = sim.SemiSpace
	GenMSFixed   = sim.GenMSFixed
	GenCopyFixed = sim.GenCopyFixed
)

// Program is a synthetic benchmark specification (Table 1 workloads).
type Program = mutator.Spec

// SizeBand is one entry of a Program's object size mix.
type SizeBand = mutator.SizeBand

// Programs returns the paper's benchmark suite (Table 1).
func Programs() []Program { return mutator.Programs }

// PseudoJBB returns the pseudoJBB workload used in the memory-pressure
// experiments.
func PseudoJBB() Program { return mutator.PseudoJBB() }

// RunConfig configures a complete single-JVM simulation; Run executes it.
type RunConfig = sim.RunConfig

// Result is a finished run's measurements.
type Result = sim.Result

// Run executes one workload × collector × machine configuration.
func Run(cfg RunConfig) Result { return sim.Run(cfg) }

// FleetSpec describes several tenants sharing one machine (TenantSpec
// each), FleetConfig couples it with what watches the run, and
// FleetResult reports one Result per tenant. Two identical tenants with
// no arbitration policy are the paper's two concurrent JVMs (§5.3.3).
type (
	FleetSpec   = sim.FleetSpec
	TenantSpec  = sim.TenantSpec
	FleetConfig = sim.FleetConfig
	FleetResult = sim.FleetResult
)

// RunFleet runs every tenant round-robin on one simulated CPU of one
// machine until all complete.
func RunFleet(cfg FleetConfig) FleetResult { return sim.RunFleet(cfg) }

// Pressure is a signalmem-style memory-pressure schedule.
type Pressure = sim.Pressure

// SteadyPressure pins frac of the heap size at once: steady pressure of
// Figure 3's kind, not its recipe, which leaves 0.4·heap + 6 MB of the
// machine available.
func SteadyPressure(heapBytes uint64, frac float64) *Pressure {
	return sim.SteadyPressure(heapBytes, frac)
}

// DynamicPressure grabs 30 MB then grows 1 MB/100 ms until only
// availBytes remain (§5.3.2).
func DynamicPressure(availBytes uint64) *Pressure { return sim.DynamicPressure(availBytes) }

// TraceSource replays a recorded or synthesized allocation trace; set it
// as RunConfig.Workload to drive a run from the trace instead of a
// Program generator. See DESIGN.md §10 and cmd/gctrace.
type TraceSource = mutator.Source

// RecordTrace executes cfg and writes its complete allocation trace
// (every allocation, pointer store, data access and root update, plus
// the mutator's data checksum) to path. The returned Result is the
// recording run's; OpenTrace replays the file through any collector,
// reproducing the recorded run exactly under the recording
// configuration. When the run or a write fails, no file is left at path.
func RecordTrace(path string, cfg RunConfig) (Result, error) { return sim.RecordTrace(path, cfg) }

// OpenTrace opens a .gctrace file (recorded by RecordTrace or
// cmd/gctrace, or synthesized by gctrace gen) for replay. The source can
// drive any number of runs; each run re-reads the file in constant
// memory.
func OpenTrace(path string) (TraceSource, error) { return workload.Open(path) }

// ExperimentOptions configures the table/figure reproductions.
type ExperimentOptions = bench.Options

// Experiment is one runnable table or figure reproduction.
type Experiment = bench.Experiment

// Experiments lists the reproduction of every table and figure in the
// paper's evaluation.
func Experiments() []Experiment { return bench.Experiments() }

// Machine is a simulated computer: physical memory, a clock, and a
// virtual memory manager shared by its processes.
type Machine struct {
	vm *vmm.VMM
}

// NewMachine creates a machine with physBytes of RAM and the default
// cost model (a disk access ≈ 10^6 memory accesses).
func NewMachine(physBytes uint64) *Machine {
	clock := vmm.NewClock()
	return &Machine{vm: vmm.New(clock, physBytes, vmm.DefaultCosts())}
}

// Now returns the machine's simulated time.
func (m *Machine) Now() time.Duration { return m.vm.Clock.Now() }

// PinMemory removes bytes of RAM from circulation (like the paper's
// signalmem tool); under pressure this forces eviction of process pages.
func (m *Machine) PinMemory(bytes uint64) { m.vm.Pin(int(bytes / mem.PageSize)) }

// UnpinMemory returns pinned RAM.
func (m *Machine) UnpinMemory(bytes uint64) { m.vm.Unpin(int(bytes / mem.PageSize)) }

// FreeMemory returns the machine's free RAM in bytes.
func (m *Machine) FreeMemory() uint64 { return uint64(m.vm.FreeFrames()) * mem.PageSize }

// VMM exposes the underlying virtual memory manager for advanced use.
func (m *Machine) VMM() *vmm.VMM { return m.vm }

// NewRuntime starts a managed runtime (a simulated JVM process) on the
// machine with the given collector and heap budget. An unknown collector
// kind is a programming error and panics; use the sim package directly
// for an error-returning constructor.
func (m *Machine) NewRuntime(name string, kind CollectorKind, heapBytes uint64) *Runtime {
	env := gc.NewEnv(m.vm, name, heapBytes)
	col, err := sim.NewCollector(kind, env)
	if err != nil {
		panic(err)
	}
	return &Runtime{env: env, col: col}
}

// Runtime is one managed process: a heap, a collector, and a root
// registry. All object access goes through it (and so through the
// simulated VM).
type Runtime struct {
	env    *gc.Env
	col    gc.Collector
	wtypes *mutator.Types
}

// Collector returns the underlying collector.
func (r *Runtime) Collector() Collector { return r.col }

// DefineScalar registers an object type of sizeWords payload words whose
// reference fields sit at the given word offsets.
func (r *Runtime) DefineScalar(name string, sizeWords int, ptrFields ...int32) *Type {
	return r.env.Types.Scalar(name, sizeWords, ptrFields...)
}

// DefineArray registers an array type (elemPtr: elements are references).
func (r *Runtime) DefineArray(name string, elemPtr bool) *Type {
	return r.env.Types.Array(name, elemPtr)
}

// Alloc allocates a scalar object, collecting as needed. The returned
// Ref is only stable until the next allocation; hold objects across
// allocations via roots or heap references.
func (r *Runtime) Alloc(t *Type) Ref { return r.col.Alloc(t, 0) }

// AllocArray allocates an array of n elements.
func (r *Runtime) AllocArray(t *Type, n int) Ref { return r.col.Alloc(t, n) }

// NewRoot registers o as a root and returns its slot; Root reads it back
// (updated by moving collections) and DropRoot releases it.
func (r *Runtime) NewRoot(o Ref) int { return r.col.Roots().Add(o) }

// Root returns the current address of the object in root slot i.
func (r *Runtime) Root(i int) Ref { return r.col.Roots().Get(i) }

// SetRoot overwrites root slot i.
func (r *Runtime) SetRoot(i int, o Ref) { r.col.Roots().Set(i, o) }

// DropRoot releases root slot i.
func (r *Runtime) DropRoot(i int) { r.col.Roots().Release(i) }

// ReadRef loads the i-th reference slot of o.
func (r *Runtime) ReadRef(o Ref, i int) Ref { return r.col.ReadRef(o, i) }

// WriteRef stores v into the i-th reference slot of o (with the
// collector's write barrier).
func (r *Runtime) WriteRef(o Ref, i int, v Ref) { r.col.WriteRef(o, i, v) }

// ReadData loads payload word d of o.
func (r *Runtime) ReadData(o Ref, d int) uint64 { return r.col.ReadData(o, d) }

// WriteData stores payload word d of o.
func (r *Runtime) WriteData(o Ref, d int, v uint64) { r.col.WriteData(o, d, v) }

// Collect forces a collection (full-heap if full).
func (r *Runtime) Collect(full bool) { r.col.Collect(full) }

// Stats returns the collector's counters.
func (r *Runtime) Stats() *Stats { return r.col.Stats() }

// Timeline returns the pause record, with Start/End set to the current
// simulated time bounds of activity so far.
func (r *Runtime) Timeline() *Timeline {
	tl := &r.col.Stats().Timeline
	tl.End = r.env.Clock.Now()
	return tl
}

// MajorFaults returns the process's disk-fault count.
func (r *Runtime) MajorFaults() uint64 { return r.env.Proc.Stats().MajorFaults }

// HeapPages returns the collector-accounted heap footprint in pages.
func (r *Runtime) HeapPages() int { return r.col.UsedPages() }

// NewProgramRun prepares a benchmark program on this runtime (the
// standard workload types are registered on first use). The program's
// roots are one block of new slots past every slot the registry holds
// when it starts: slots the caller released before are left to the
// caller's next NewRoot, so a program started after DropRoot calls sees
// different slot indices than one started on a fresh runtime.
func (r *Runtime) NewProgramRun(p Program, seed int64) *mutator.Run {
	if r.wtypes == nil {
		t := mutator.DeclareTypes(r.env)
		r.wtypes = &t
	}
	return mutator.NewRun(p, r.col, *r.wtypes, seed)
}
