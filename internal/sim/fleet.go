package sim

import (
	"fmt"
	"time"

	"bookmarkgc/internal/fault"
	"bookmarkgc/internal/gc"
	"bookmarkgc/internal/heappolicy"
	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/mutator"
	"bookmarkgc/internal/telemetry"
	"bookmarkgc/internal/trace"
	"bookmarkgc/internal/vmm"
	"bookmarkgc/internal/workload"
)

// ArbitrationPolicy names a fleet eviction-arbitration policy: how the
// machine chooses which tenant loses a page when the fleet is short.
type ArbitrationPolicy string

const (
	// PolicyGlobalLRU approves whatever the clock algorithm proposes —
	// the kernel's native behaviour, blind to tenant identity.
	PolicyGlobalLRU ArbitrationPolicy = "global-lru"
	// PolicyProportional vetoes evictions from tenants already at or
	// below their weighted share of the machine, pushing pressure toward
	// whoever is over budget (the MemBalancer-style composition rule).
	PolicyProportional ArbitrationPolicy = "proportional"
	// PolicyCooperative shields tenants that registered for paging
	// notifications (BC and kin) while any non-cooperating tenant still
	// holds reclaimable residency: cooperators can shrink gracefully on
	// their own, so forced eviction goes to those who cannot.
	PolicyCooperative ArbitrationPolicy = "cooperative"
)

// ArbitrationPolicies lists every policy, in documentation order.
var ArbitrationPolicies = []ArbitrationPolicy{PolicyGlobalLRU, PolicyProportional, PolicyCooperative}

// TenantSpec describes one fleet tenant: a pure, serializable value.
// Exactly one workload source applies, in precedence order: TracePath
// (a recorded .gctrace file), Synth (a synthesized trace), else Program
// (the generated benchmark).
type TenantSpec struct {
	// Name labels the tenant everywhere (trace threads, flight dumps,
	// reports); empty defaults to "<collector>-<index>".
	Name      string        `json:"name,omitempty"`
	Collector CollectorKind `json:"collector"`
	HeapBytes uint64        `json:"heap_bytes"`

	Program   mutator.Spec          `json:"program,omitempty"`
	Synth     *workload.SynthParams `json:"synth,omitempty"`
	TracePath string                `json:"trace_path,omitempty"`

	// Chaos, when non-empty, is a fault regime name (fault.Regimes). The
	// tenant's injector seed derives from the fleet chaos seed and the
	// tenant index via fault.TenantSeed, so schedules are independent.
	Chaos string `json:"chaos,omitempty"`
	// Weight is the tenant's proportional-share weight (default 1).
	Weight int `json:"weight,omitempty"`
	// HeapPolicy names the tenant's heap-limit policy
	// (internal/heappolicy), overriding FleetSpec.HeapPolicy. Empty
	// falls back to the fleet default, then the collector's own.
	HeapPolicy string `json:"heap_policy,omitempty"`
}

// FleetSpec is the serializable description of one fleet run: the
// tenants, the machine, the arbitration policy, and the degradation
// ladder. It is a pure value — runner jobs hash it as-is.
type FleetSpec struct {
	Tenants   []TenantSpec `json:"tenants"`
	PhysBytes uint64       `json:"phys_bytes"`
	// Quantum is allocations per scheduling turn (default 512).
	Quantum int `json:"quantum,omitempty"`
	// Seed offsets every tenant's workload seed (tenant i runs with
	// Seed + i; ignored for traces).
	Seed int64 `json:"seed,omitempty"`
	// ChaosSeed is the fleet-wide chaos seed tenant injector seeds
	// derive from.
	ChaosSeed int64 `json:"chaos_seed,omitempty"`
	// Policy is the starting arbitration policy (default global-lru).
	Policy ArbitrationPolicy `json:"policy,omitempty"`

	// HeapPolicy names the default heap-limit policy for every tenant
	// (internal/heappolicy); per-tenant HeapPolicy overrides it. Empty
	// keeps each collector's own default.
	HeapPolicy string `json:"heap_policy,omitempty"`
	// BalanceEveryNS arms the fleet MemBalancer: every BalanceEveryNS
	// of simulated time the machine's unpinned memory is redistributed
	// across tenants whose policies participate (heappolicy.Balancable)
	// in proportion to their square-root terms, by capping each
	// participant's heap target. Zero disables the balancer.
	BalanceEveryNS int64 `json:"balance_every_ns,omitempty"`

	// Degradation ladder. The cascade detector samples the fleet-wide
	// major-fault count every 100 ms of simulated time; when the
	// per-window count meets CascadeMajorFaults for two consecutive
	// windows, the fleet has cascaded: the arbiter escalates to
	// EscalateTo (when set), the tenant with the most major faults in
	// the window loses its next 16 turns, and a fleet flight bundle is
	// written. A zero CascadeMajorFaults disables the detector.
	CascadeMajorFaults uint64            `json:"cascade_major_faults,omitempty"`
	EscalateTo         ArbitrationPolicy `json:"escalate_to,omitempty"`
}

// FleetConfig couples a FleetSpec with the host-side knobs that do not
// affect simulated outcomes (and so stay out of job hashes).
type FleetConfig struct {
	Spec FleetSpec

	// Trace gives each tenant its own named thread in one shared
	// recorder; Counters is one registry shared by every tenant.
	Trace    *trace.Recorder
	Counters *trace.Counters

	// FlightDir arms a per-tenant flight recorder on each tenant
	// (telemetry.NewFlightRecorder: its series keeps only a bundle's
	// window), tagged with the tenant's name, plus the fleet-level
	// cascade bundles; all dumps draw on one shared DumpQuota.
	FlightDir string

	// MarkWorkers is ignored: marking runs on one worker. It stays
	// declared only because the benchmark module still sets it.
	MarkWorkers int

	// AfterCollection, when set, runs at the end of every collection of
	// every tenant (gc.Base.OnCollectionEnd) — the hook fleet soak tests
	// hang invariant and accounting checks on.
	// The machine is passed so checks can audit cross-owner bookkeeping.
	AfterCollection func(tenant int, col gc.Collector, v *vmm.VMM)
}

// FleetResult is the outcome of one fleet run.
type FleetResult struct {
	// Tenants holds one Result per tenant, in spec order.
	Tenants []Result
	// Names are the resolved tenant names, index-aligned with Tenants.
	Names []string

	FleetStats
	// VMM is the shared machine's paging counters.
	VMM vmm.Stats

	// Err is a configuration-level failure (unknown collector, bad
	// regime, unreadable trace): nothing ran. ErrTenant is the tenant
	// index it arose on, -1 for fleet-level problems.
	Err       error
	ErrTenant int
}

// FleetStats is a fleet run's fleet-level outcome: what no tenant's
// Result can carry — arbitration, cascades and the cross-tenant
// aggregates. The result store keeps it as it is (runner.Result.Fleet),
// so its JSON keys are stored keys and must not change.
type FleetStats struct {
	// InitialPolicy and Policy are the arbitration policy at the start
	// and end of the run (they differ iff the ladder escalated).
	InitialPolicy ArbitrationPolicy `json:"initial_policy"`
	Policy        ArbitrationPolicy `json:"final_policy"`
	Cascades      int               `json:"cascades"`
	Escalated     bool              `json:"escalated,omitempty"`

	AggMinorFaults uint64 `json:"agg_minor_faults"`
	AggMajorFaults uint64 `json:"agg_major_faults"`
	AggEvictions   uint64 `json:"agg_evictions"`
	ArbiterVetoes  uint64 `json:"arbiter_vetoes"`
	// Fairness is Jain's index over per-tenant eviction counts: 1.0 is
	// perfectly even pressure, 1/n is one tenant absorbing everything.
	Fairness float64 `json:"eviction_fairness"`
	// PauseP99NS is each tenant's 99th-percentile pause, index-aligned
	// with the tenants.
	PauseP99NS []int64 `json:"pause_p99_ns,omitempty"`

	// BalancerRounds counts fleet MemBalancer redistribution rounds
	// (zero unless FleetSpec.BalanceEveryNS armed the balancer).
	BalancerRounds int `json:"balancer_rounds,omitempty"`
	// AggPeakResident is the sum of every tenant's peak resident page
	// count — the fleet's memory-side Pareto axis.
	AggPeakResident uint64 `json:"agg_peak_resident,omitempty"`

	// ElapsedSecs is the fleet's total simulated time.
	ElapsedSecs float64 `json:"elapsed_secs,omitempty"`

	// FleetDumps are the cascade bundle paths written (FlightDir only):
	// where, not what, so the store does not keep them.
	FleetDumps []string `json:"-"`
}

// fleetArbiter maps vmm.Arbiter onto the current policy. Escalation
// swaps the mode, not the arbiter, so mid-run policy changes are a
// single field write on the simulated thread.
type fleetArbiter struct {
	f    *fleetRun
	mode ArbitrationPolicy
}

func (a *fleetArbiter) Approve(owner *vmm.Proc, pg mem.PageID) bool {
	switch a.mode {
	case PolicyProportional:
		t, ok := a.f.byProc[owner]
		if !ok {
			return true
		}
		return owner.ResidentPages() > a.f.shareFrames(t)
	case PolicyCooperative:
		if owner.Handler() == nil {
			return true
		}
		// Shield the cooperator only while some non-cooperating tenant
		// still has meaningful residency to give up.
		return !a.f.uncoopHasSlack()
	default:
		return true
	}
}

// uncoopSlackFloor is the residency (pages) below which a
// non-cooperating tenant no longer counts as an eviction target.
const uncoopSlackFloor = 32

// The degradation ladder's fixed shape: the detector's window, the hot
// windows in a row that make a cascade, and the turns the noisiest
// tenant loses to one.
const (
	cascadeWindow     = 100 * time.Millisecond
	cascadeSustain    = 2
	backpressureSkips = 16
)

// maxDumpsPerTenant bounds each tenant's share of the flight-dump budget.
const maxDumpsPerTenant = 4

// fleetRun is the live fleet engine state.
type fleetRun struct {
	cfg FleetConfig
	machine
	tenants []*tenant
	byProc  map[*vmm.Proc]*tenant
	arbiter *fleetArbiter
	policy  ArbitrationPolicy // the starting policy, "" resolved
	quota   *telemetry.DumpQuota

	quantum     int
	totalWeight int

	ladder     ladder
	cascades   int
	escalated  bool
	fleetDumps []string
	dumpSeq    int

	balancerRounds int
	participants   []participant // rebalance's scratch
}

// participant is one tenant a MemBalancer round distributes memory to.
type participant struct {
	pol  heappolicy.Balancable
	live float64
	w    float64
}

// shareFrames is tenant t's weighted share of the machine's frames.
func (f *fleetRun) shareFrames(t *tenant) int {
	return f.v.TotalFrames() * t.weight / f.totalWeight
}

// uncoopHasSlack reports whether any non-cooperating tenant still holds
// enough residency to be a reasonable victim.
func (f *fleetRun) uncoopHasSlack() bool {
	for _, t := range f.tenants {
		if t.env.Proc.Handler() == nil && t.env.Proc.ResidentPages() > uncoopSlackFloor {
			return true
		}
	}
	return false
}

// RunFleet runs N heterogeneous tenants sharing one machine through a
// single discrete-event queue: round-robin quanta on one simulated CPU,
// cross-tenant eviction arbitration, per-tenant chaos, and the
// graceful-degradation ladder. Everything observable is a function of
// the FleetSpec alone — reports are byte-identical for any -jobs
// setting.
func RunFleet(cfg FleetConfig) FleetResult {
	if len(cfg.Spec.Tenants) == 0 {
		return FleetResult{Err: fmt.Errorf("sim: fleet has no tenants"), ErrTenant: -1}
	}
	if err := checkPhys(cfg.Spec.PhysBytes); err != nil {
		return FleetResult{Err: err, ErrTenant: -1}
	}
	f := newFleetRun(cfg)
	defer f.release()
	if i, err := f.assemble(); err != nil {
		return FleetResult{Err: err, ErrTenant: i, FleetStats: FleetStats{InitialPolicy: f.policy, Policy: f.policy}}
	}
	f.armLadder()
	f.armBalancer()
	f.schedule()
	return f.report()
}

// newFleetRun builds the shared machine and the fleet-wide parts that
// exist before any tenant does: arbiter and dump quota.
func newFleetRun(cfg FleetConfig) *fleetRun {
	spec := cfg.Spec
	f := &fleetRun{
		cfg:     cfg,
		machine: newMachine(spec.PhysBytes, cfg.Trace),
		byProc:  make(map[*vmm.Proc]*tenant, len(spec.Tenants)),
		policy:  spec.Policy,
		quantum: spec.Quantum,
	}
	if f.policy == "" {
		f.policy = PolicyGlobalLRU
	}
	if f.quantum <= 0 {
		f.quantum = 512
	}
	for _, ts := range spec.Tenants {
		f.totalWeight += max(ts.Weight, 1)
	}
	// The arbiter is installed only when the spec engages arbitration
	// (a policy, or a ladder that can escalate into one): a bare fleet —
	// identical JVMs sharing a machine (§5.3.3) — runs on an
	// unarbitrated VMM.
	f.arbiter = &fleetArbiter{f: f, mode: f.policy}
	if spec.Policy != "" || spec.EscalateTo != "" {
		f.v.SetArbiter(f.arbiter)
	}
	if cfg.FlightDir != "" {
		f.quota = telemetry.NewDumpQuota(maxDumpsPerTenant, 4+2*len(spec.Tenants), 4)
	}
	return f
}

// assemble admits every tenant in spec order. A configuration error
// (unknown collector, bad regime, unreadable trace) stops it, reported
// with the index of the tenant it arose on.
func (f *fleetRun) assemble() (int, error) {
	for i, ts := range f.cfg.Spec.Tenants {
		cfg, err := f.tenantConfig(i, ts)
		if err != nil {
			return i, err
		}
		name := ts.Name
		if name == "" {
			name = fmt.Sprintf("%s-%d", ts.Collector, i)
		}
		var tr trace.Tracer
		if f.cfg.Trace != nil {
			tr = f.cfg.Trace.Thread(name)
		}
		if f.cfg.FlightDir != "" {
			cfg.Telemetry = telemetry.NewFlightRecorder(telemetry.Config{
				FlightDir: f.cfg.FlightDir,
				Tenant:    name,
				Quota:     f.quota,
			})
		}
		t, err := f.admit(name, cfg, tr)
		if err != nil {
			return i, err
		}
		t.weight = max(ts.Weight, 1)
		if f.cfg.AfterCollection != nil {
			t.col.Direct().OnCollectionEnd(func() { f.cfg.AfterCollection(i, t.col, f.v) })
		}
		f.byProc[t.env.Proc] = t
		f.tenants = append(f.tenants, t)
	}
	return -1, nil
}

// tenantConfig is tenant i's effective RunConfig: the spec's fields
// with the fleet-wide defaults, seed offsets and chaos seed derivation
// applied, so Result.Config says what the tenant actually ran with.
// The workload follows the documented precedence: recorded trace,
// synthesized trace, else (nil) the generated program.
func (f *fleetRun) tenantConfig(i int, ts TenantSpec) (RunConfig, error) {
	spec := f.cfg.Spec
	cfg := RunConfig{
		Collector:  ts.Collector,
		Program:    ts.Program,
		HeapBytes:  ts.HeapBytes,
		PhysBytes:  spec.PhysBytes,
		Seed:       spec.Seed + int64(i),
		Counters:   f.cfg.Counters,
		HeapPolicy: ts.HeapPolicy,
	}
	if cfg.HeapPolicy == "" {
		cfg.HeapPolicy = spec.HeapPolicy
	}
	var err error
	switch {
	case ts.TracePath != "":
		cfg.Workload, err = workload.Open(ts.TracePath)
	case ts.Synth != nil:
		cfg.Workload, err = workload.NewSynthSource(*ts.Synth)
	case ts.Program.Name == "":
		err = fmt.Errorf("sim: tenant has no workload (no program, synth, or trace)")
	}
	if err != nil {
		return cfg, err
	}
	if ts.Chaos != "" {
		fc, ok := fault.ByName(ts.Chaos, fault.TenantSeed(spec.ChaosSeed, i))
		if !ok {
			return cfg, fmt.Errorf("sim: unknown chaos regime %q", ts.Chaos)
		}
		cfg.Chaos = &fc
	}
	return cfg, nil
}

// release tears down every admitted tenant, then the machine. The
// traces assemble synthesized for the tenants and their flight
// recorders go back to their pools too.
func (f *fleetRun) release() {
	for _, t := range f.tenants {
		if s, ok := t.cfg.Workload.(*workload.SynthSource); ok {
			s.Release()
		}
		if f.cfg.FlightDir != "" {
			t.cfg.Telemetry.Release()
		}
		t.release()
	}
	f.machine.release()
}

// ladder is the cascade detector's state: a hot window is one whose
// fleet-wide major-fault count met the threshold, and cascadeSustain
// hot windows in a row are a cascade.
type ladder struct {
	threshold uint64

	hot  int    // consecutive hot windows so far
	last uint64 // fleet major faults at the previous tick
}

// observe closes one window at fleet-wide major-fault count cur and
// reports the window's own count and whether the fleet has now
// cascaded. A cool window, like a cascade, restarts the count.
func (l *ladder) observe(cur uint64) (delta uint64, cascaded bool) {
	delta = cur - l.last
	l.last = cur
	if delta < l.threshold {
		l.hot = 0
		return delta, false
	}
	l.hot++
	if l.hot < cascadeSustain {
		return delta, false
	}
	l.hot = 0
	return delta, true
}

// armLadder arms the cascade detector on the simulated clock, when the
// spec sets a threshold.
func (f *fleetRun) armLadder() {
	spec := f.cfg.Spec
	if spec.CascadeMajorFaults == 0 {
		return
	}
	f.ladder = ladder{threshold: spec.CascadeMajorFaults, last: f.v.Stats().MajorFaults}
	f.snapshotMajors()
	f.every(cascadeWindow, func() {
		if delta, cascaded := f.ladder.observe(f.v.Stats().MajorFaults); cascaded {
			f.cascade(delta)
		} else {
			f.snapshotMajors()
		}
	})
}

// snapshotMajors restarts every tenant's per-window major-fault count,
// the basis of noisiest-tenant attribution.
func (f *fleetRun) snapshotMajors() {
	for _, t := range f.tenants {
		t.lastMajor = t.env.Proc.Stats().MajorFaults
	}
}

// armBalancer arms the fleet MemBalancer on the simulated clock, so
// redistribution is a pure function of simulated time and
// byte-identical for any host parallelism.
func (f *fleetRun) armBalancer() {
	if every := f.cfg.Spec.BalanceEveryNS; every > 0 {
		f.every(time.Duration(every), f.rebalance)
	}
}

// schedule runs the fleet to completion, one scheduling turn at a time.
func (f *fleetRun) schedule() {
	for f.turn() {
	}
}

// turn gives every live tenant one quantum, round-robin in spec order,
// except that a backpressured tenant spends one of its penalty skips
// instead, and reports whether any tenant is still live.
func (f *fleetRun) turn() bool {
	live := 0
	for _, t := range f.tenants {
		if t.done {
			continue
		}
		live++
		if t.penaltySkips > 0 {
			t.penaltySkips--
			continue
		}
		if !t.step(f.quantum) {
			t.retire()
		}
	}
	return live > 0
}

// report assembles the FleetResult: per-tenant Results (End stamped when
// the tenant retired, elapsed measured to the fleet's end) and the
// fleet-wide aggregates.
func (f *fleetRun) report() FleetResult {
	n := len(f.tenants)
	res := FleetResult{
		Tenants: make([]Result, n),
		Names:   make([]string, n),
		FleetStats: FleetStats{
			PauseP99NS:     make([]int64, n),
			InitialPolicy:  f.policy,
			Policy:         f.arbiter.mode,
			Cascades:       f.cascades,
			Escalated:      f.escalated,
			BalancerRounds: f.balancerRounds,
			FleetDumps:     f.fleetDumps,
			ElapsedSecs:    f.clock.Now().Seconds(),
			Fairness:       f.fairnessNow(),
		},
		VMM:       f.v.Stats(),
		ErrTenant: -1,
	}
	res.ArbiterVetoes = res.VMM.ArbiterVetoes
	for i, t := range f.tenants {
		r := t.result()
		// The fleet's own flight recorders are released with it.
		r.Config.Telemetry = nil
		res.Tenants[i] = r
		res.Names[i] = t.env.Proc.Name()
		res.AggMinorFaults += r.ProcStats.MinorFaults
		res.AggMajorFaults += r.ProcStats.MajorFaults
		res.AggEvictions += r.ProcStats.Evictions
		res.AggPeakResident += r.ProcStats.PeakResident
		res.PauseP99NS[i] = int64(r.Timeline.Percentile(99))
	}
	return res
}

// cascade is the ladder's response to a sustained fleet-wide fault
// storm: escalate the arbitration policy, backpressure the noisiest
// tenant, and write the fleet bundle through the reserved dump slots.
// Runs on the simulated clock, so every action is deterministic.
func (f *fleetRun) cascade(windowFaults uint64) {
	spec := f.cfg.Spec
	f.cascades++

	// Escalate the arbitration policy (once per run).
	if spec.EscalateTo != "" && f.arbiter.mode != spec.EscalateTo {
		f.arbiter.mode = spec.EscalateTo
		f.escalated = true
	}

	// The tenant with the most major faults this window loses its next
	// turns at the scheduler.
	noisiest := -1
	var worst uint64
	for i, t := range f.tenants {
		cur := t.env.Proc.Stats().MajorFaults
		d := cur - t.lastMajor
		t.lastMajor = cur
		if noisiest < 0 || d > worst {
			noisiest = i
			worst = d
		}
	}
	f.tenants[noisiest].penaltySkips += backpressureSkips

	// A bundle no slot would take is not assembled. Slots are never
	// given back, so no later bundle is written either, and skipping
	// dumpSeq changes no file name.
	if f.cfg.FlightDir == "" || !f.quota.FleetSlotsLeft() {
		return
	}
	b := &telemetry.FleetBundle{
		Reason:        "cascade-thrash",
		SimTimeNS:     int64(f.clock.Now()),
		WindowNS:      int64(cascadeWindow),
		WindowFaults:  windowFaults,
		Threshold:     spec.CascadeMajorFaults,
		SustainedFor:  cascadeSustain,
		Policy:        string(f.cfg.Spec.Policy),
		Fairness:      f.fairnessNow(),
		AggMajor:      f.v.Stats().MajorFaults,
		AggEvictions:  f.v.Stats().Evictions,
		ArbiterVetoes: f.v.Stats().ArbiterVetoes,
		Tenants:       make([]telemetry.TenantFlightSnap, 0, len(f.tenants)),
	}
	if f.escalated {
		b.EscalatedTo = string(f.arbiter.mode)
	}
	for i, t := range f.tenants {
		snap := telemetry.TenantFlightSnap{
			Tenant:        t.env.Proc.Name(),
			Collector:     t.col.Name(),
			Cooperative:   t.env.Proc.Handler() != nil,
			ResidentPages: t.env.Proc.ResidentPages(),
			MajorFaults:   t.env.Proc.Stats().MajorFaults,
			Evictions:     t.env.Proc.Stats().Evictions,
			PauseP99NS:    int64(t.col.Stats().Timeline.Percentile(99)),
			Penalized:     i == noisiest,
		}
		if t.failed != nil {
			snap.Failed = t.failed.Error()
		}
		b.Tenants = append(b.Tenants, snap)
	}
	f.dumpSeq++
	if path := telemetry.WriteFleetBundle(f.cfg.FlightDir, f.dumpSeq, b, f.quota); path != "" {
		f.fleetDumps = append(f.fleetDumps, path)
	}
}

// rebalance is one fleet MemBalancer round: redistribute the machine's
// unpinned memory across tenants whose heap policies participate
// (heappolicy.Balancable with established rates), in proportion to
// their square-root terms. Non-participants — fixed budgets, policies
// still warming up, dead tenants — keep what they hold; their resident
// bytes are subtracted from the distributable budget first. Caps
// compose with, never bypass, the eviction arbiter: a cap only lowers
// a tenant's own heap target, and the VMM still decides which pages
// go. Runs on the simulated clock in tenant index order, so every
// round is deterministic.
func (f *fleetRun) rebalance() {
	f.balancerRounds++
	f.cfg.Counters.Inc(trace.CBalancerRounds)

	budget := float64(f.v.TotalFrames()-f.v.PinnedFrames()) * float64(mem.PageSize)
	parts := f.participants[:0]
	var sumLive, sumW float64
	for _, t := range f.tenants {
		b, ok := t.env.HeapPolicy.(heappolicy.Balancable)
		if ok && !t.done {
			live, w := b.BalanceStats()
			if w > 0 {
				parts = append(parts, participant{pol: b, live: live, w: w})
				sumLive += live
				sumW += w
				continue
			}
			// No established rates yet: run uncapped until the policy
			// has enough history to state a square-root term.
			b.SetFleetCap(0)
		}
		budget -= float64(t.env.Proc.ResidentPages()) * float64(mem.PageSize)
	}
	f.participants = parts
	if len(parts) == 0 {
		return
	}
	extra := budget - sumLive
	if extra < 0 {
		extra = 0
	}
	for _, p := range parts {
		capPages := int((p.live + extra*p.w/sumW) / float64(mem.PageSize))
		if capPages < 1 {
			capPages = 1
		}
		if capPages < p.pol.Target() {
			f.cfg.Counters.Inc(trace.CPolicyClamps)
		}
		p.pol.SetFleetCap(capPages)
	}
}

// fairnessNow is the live eviction-pressure fairness index.
func (f *fleetRun) fairnessNow() float64 {
	xs := make([]float64, len(f.tenants))
	for i, t := range f.tenants {
		xs[i] = float64(t.env.Proc.Stats().Evictions)
	}
	return telemetry.FairnessIndex(xs)
}
