package sim

import (
	"fmt"
	"time"

	"bookmarkgc/internal/fault"
	"bookmarkgc/internal/gc"
	"bookmarkgc/internal/heappolicy"
	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/mutator"
	"bookmarkgc/internal/trace"
	"bookmarkgc/internal/vmm"
)

// machine is the simulated hardware a run executes on. Run and RunFleet
// both admit tenants onto one: a single-JVM run is a one-tenant fleet
// with no scheduler (DESIGN.md §13).
type machine struct {
	clock *vmm.Clock
	v     *vmm.VMM
}

// checkPhys rejects a machine smaller than vmm.New accepts, so a run
// reports it as its error instead of panicking before it starts.
func checkPhys(physBytes uint64) error {
	if physBytes < vmm.MinPhysBytes {
		return fmt.Errorf("sim: PhysBytes %d below the machine minimum %d", physBytes, vmm.MinPhysBytes)
	}
	return nil
}

// newMachine builds a machine of physBytes and binds rec, when non-nil,
// to its clock.
func newMachine(physBytes uint64, rec *trace.Recorder) machine {
	clock := vmm.NewClock()
	if rec != nil {
		rec.SetClock(clock)
	}
	return machine{clock: clock, v: vmm.New(clock, physBytes, vmm.DefaultCosts())}
}

// release recycles the machine's host tables — its VMM's queues and
// every process's tables and page bodies — for the next run in the
// process. Call it once every tenant is done and released.
func (m machine) release() { m.v.Release() }

// every runs fn each d of simulated time from now on.
func (m machine) every(d time.Duration, fn func()) {
	var tick func()
	tick = func() {
		fn()
		m.clock.Schedule(m.clock.Now()+d, tick)
	}
	m.clock.Schedule(m.clock.Now()+d, tick)
}

// tenant is one JVM process on a machine. The fields below inj are the
// fleet scheduler's per-tenant state; a single-JVM run leaves them zero.
type tenant struct {
	cfg RunConfig // as run: echoed in Result.Config

	env *gc.Env
	col gc.Collector
	run mutator.Workload
	inj *fault.Injector

	weight       int
	penaltySkips int
	lastMajor    uint64 // detector snapshot for noisiest-tenant attribution

	done   bool
	failed error
}

// resolvePolicy builds the named heap policy ("" = none: the fixed
// configured budget, and BC's built-in default). BC's Regrow variant
// carries its regrow flag into an explicit bc-shrink policy so
// "-heap-policy bc-shrink" on BC-Regrow keeps the §7 extension.
func resolvePolicy(name string, kind CollectorKind) (heappolicy.Policy, error) {
	if name == "" {
		return nil, nil
	}
	return heappolicy.New(name, heappolicy.Options{Regrow: kind == BCRegrow})
}

// policyRelay forwards the VMM's eviction notices to a
// pressure-sensitive heap policy for collectors that have no
// vmm.Handler of their own (everything but BC). Registering a handler
// also marks the process cooperative for the fleet arbiter —
// intentionally: the pressure-sensitive policy IS this process's
// cooperation mechanism.
type policyRelay struct{ col gc.Collector }

func (r *policyRelay) EvictionScheduled(mem.PageID) {
	gc.ObserveHeapPolicy(r.col, heappolicy.EvPressure, -1)
}

func (r *policyRelay) PageReloaded(mem.PageID, bool) {}

// admit assembles cfg as process name on m and stamps its timeline's
// start. tr is the process's trace thread (nil = none); telemetry wraps
// it before assembly so every span the collector emits flows through
// the attribution tracer. cfg.Pressure, Sink and Trace are the caller's
// to apply: they belong to the machine or the recorder, not the process.
func (m machine) admit(name string, cfg RunConfig, tr trace.Tracer) (*tenant, error) {
	if cfg.HeapBytes == 0 {
		return nil, fmt.Errorf("sim: HeapBytes is 0, below the minimum 1 (heaps round up to whole %d-byte pages)", mem.PageSize)
	}
	pol, err := resolvePolicy(cfg.HeapPolicy, cfg.Collector)
	if err != nil {
		return nil, err
	}
	env := gc.NewEnv(m.v, name, cfg.HeapBytes)
	if cfg.Telemetry != nil {
		tr = cfg.Telemetry.Tracer(tr)
	}
	if tr != nil {
		env.Trace = tr
	}
	env.Counters = cfg.Counters
	env.HeapPolicy = pol
	types := mutator.DeclareTypes(env)
	col, err := NewCollector(cfg.Collector, env)
	if err != nil {
		return nil, err
	}
	if pol != nil && pol.PressureSensitive() && env.Proc.Handler() == nil {
		env.Proc.Register(&policyRelay{col: col})
	}
	var run mutator.Workload
	if cfg.Workload != nil {
		run, err = cfg.Workload.NewWorkload(col, types, cfg.Seed)
	} else {
		run, err = cfg.Program.NewWorkload(col, types, cfg.Seed)
	}
	if err != nil {
		return nil, err
	}
	t, ok := freeTenants.Get()
	if !ok {
		t = new(tenant)
	}
	*t = tenant{cfg: cfg, env: env, col: col, run: run}
	if cfg.Telemetry != nil {
		cfg.Telemetry.Attach(m.v, env, col, cfg.Counters)
	}
	if cfg.Chaos != nil {
		t.inj = fault.Interpose(env.Proc, *cfg.Chaos, cfg.Counters)
		t.inj.StartSpikes(m.v)
	}
	col.Stats().Timeline.Start = m.clock.Now()
	return t, nil
}

// step advances the tenant one quantum of allocations and reports
// whether it has more to do. A live heap that outgrows the budget
// surfaces as an ErrOutOfMemory panic deep in an allocation; it becomes
// this tenant's failure, so sweeps survive configurations that cannot
// fit and co-tenants keep running. The injector gets a safepoint after
// every quantum, the last included, so no held notice goes undelivered.
func (t *tenant) step(quantum int) (alive bool) {
	defer func() {
		if r := recover(); r != nil {
			oom, ok := r.(gc.ErrOutOfMemory)
			if !ok {
				panic(r)
			}
			t.failed = oom
			alive = false
		}
	}()
	alive = t.run.Step(quantum)
	if t.inj != nil {
		t.inj.Safepoint()
	}
	return alive
}

// retire ends the tenant's run at the current simulated time. A
// workload can end by failing internally (a corrupt or truncated
// trace); that is a run failure, same as out-of-memory.
func (t *tenant) retire() {
	t.done = true
	if err := t.run.Err(); err != nil && t.failed == nil {
		t.failed = err
	}
	t.col.Stats().Timeline.End = t.env.Clock.Now()
	if t.cfg.Telemetry != nil {
		t.cfg.Telemetry.RunEnded(t.failed)
	}
}

// result reads out the tenant's measurements. Elapsed time runs to the
// machine's present, not the tenant's retirement: co-tenants share one
// CPU, so a fleet member's execution time is the fleet's.
func (t *tenant) result() Result {
	st := t.col.Stats()
	r := Result{
		Config:      t.cfg,
		Timeline:    st.Timeline,
		Mutator:     t.run.Finish(),
		GCStats:     *st,
		ProcStats:   t.env.Proc.Stats(),
		ElapsedSecs: (t.env.Clock.Now() - st.Timeline.Start).Seconds(),
		Counters:    t.cfg.Counters,
		Err:         t.failed,
	}
	if t.inj != nil {
		s := t.inj.Stats()
		r.Faults = &s
	}
	return r
}

// release recycles the tenant and its host scratch — root registry,
// mark tallies, what its environment holds, a generated program's run
// and its injector's generator — for the next run in the process; t is
// not used again. Its process's tables, page bodies and the tables its
// space lent go back with the machine.
func (t *tenant) release() {
	t.env.ReleaseScratch(t.col.Roots())
	if r, ok := t.run.(*mutator.Run); ok {
		r.Release()
	}
	if t.inj != nil {
		t.inj.Release()
	}
	*t = tenant{}
	freeTenants.Put(t)
}

// freeTenants holds released tenants for the next admit.
var freeTenants mem.FreeList[*tenant]
