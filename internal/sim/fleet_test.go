package sim

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"bookmarkgc/internal/gc"
	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/mutator"
	"bookmarkgc/internal/telemetry"
	"bookmarkgc/internal/vmm"
)

// thrashFleetSpec builds a small three-tenant fleet sized to genuinely
// thrash: machine frames at frac of the summed heaps, one noisy
// CopyMS neighbor under the "thrash" chaos regime, and the cascade
// detector armed at a 60% fault-service duty cycle.
func thrashFleetSpec(frac float64) FleetSpec {
	progs := []string{"compress", "db", "raytrace"}
	kinds := []CollectorKind{BC, CopyMS, GenMS}
	spec := FleetSpec{
		Seed:               1,
		ChaosSeed:          42,
		Quantum:            512,
		Policy:             PolicyGlobalLRU,
		CascadeMajorFaults: 12,
	}
	var sum uint64
	for i := 0; i < 3; i++ {
		prog, _ := mutator.ByName(progs[i])
		prog = prog.Scale(0.05)
		ts := TenantSpec{
			Collector: kinds[i],
			Program:   prog,
			HeapBytes: mem.RoundUpPage(2 * prog.MinHeap),
		}
		if i == 1 {
			ts.Chaos = "thrash"
			ts.Weight = 2
		}
		sum += ts.HeapBytes
		spec.Tenants = append(spec.Tenants, ts)
	}
	phys := mem.RoundUpPage(uint64(frac * float64(sum)))
	if phys < vmm.MinPhysBytes {
		phys = vmm.MinPhysBytes
	}
	spec.PhysBytes = phys
	return spec
}

// fleetOutcome flattens every simulated-outcome observable of a fleet
// run into one string, so determinism tests compare a single value.
func fleetOutcome(fr FleetResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "policy=%s/%s cascades=%d escalated=%v elapsed=%.9f\n",
		fr.InitialPolicy, fr.Policy, fr.Cascades, fr.Escalated, fr.ElapsedSecs)
	fmt.Fprintf(&b, "minor=%d major=%d evict=%d vetoes=%d fairness=%.9f\n",
		fr.AggMinorFaults, fr.AggMajorFaults, fr.AggEvictions, fr.ArbiterVetoes, fr.Fairness)
	for i, r := range fr.Tenants {
		fmt.Fprintf(&b, "tenant %s: checksum=%x allocs=%d major=%d evict=%d p99=%d gcs=%d err=%v\n",
			fr.Names[i], r.Mutator.Checksum, r.Mutator.Allocations,
			r.ProcStats.MajorFaults, r.ProcStats.Evictions, fr.PauseP99NS[i],
			r.GCStats.Nursery+r.GCStats.Full, r.Err)
	}
	return b.String()
}

// TestFleetDeterminism runs the same thrashing, chaos-bearing,
// cascade-escalating spec twice: every observable must be bit-identical.
func TestFleetDeterminism(t *testing.T) {
	spec := thrashFleetSpec(0.5)
	spec.EscalateTo = PolicyCooperative

	base := RunFleet(FleetConfig{Spec: spec})
	if base.Err != nil {
		t.Fatalf("fleet err (tenant %d): %v", base.ErrTenant, base.Err)
	}
	if base.Cascades == 0 {
		t.Fatal("tuned spec did not cascade; determinism test lost its interesting path")
	}
	want := fleetOutcome(base)
	if got := fleetOutcome(RunFleet(FleetConfig{Spec: spec})); got != want {
		t.Errorf("second run diverged:\n--- want\n%s--- got\n%s", want, got)
	}
}

// TestFleetMatchesIsolatedRuns checks the differential oracle: a
// tenant's mutator checksum depends only on (program, seed), so each
// fleet tenant must compute exactly the checksum the same program
// produces in a single-tenant sim.Run, no matter what paging and
// arbitration did to it in the fleet.
func TestFleetMatchesIsolatedRuns(t *testing.T) {
	spec := thrashFleetSpec(0.5)
	spec.EscalateTo = PolicyCooperative
	fr := RunFleet(FleetConfig{Spec: spec})
	if fr.Err != nil {
		t.Fatalf("fleet err: %v", fr.Err)
	}
	for i, r := range fr.Tenants {
		if r.Err != nil {
			t.Fatalf("tenant %s failed: %v", fr.Names[i], r.Err)
		}
		ts := spec.Tenants[i]
		solo := Run(RunConfig{
			Collector: ts.Collector,
			Program:   ts.Program,
			HeapBytes: ts.HeapBytes,
			PhysBytes: 4 * ts.HeapBytes, // alone and unpressured
			Seed:      spec.Seed + int64(i),
		})
		if solo.Err != nil {
			t.Fatalf("isolated run for %s failed: %v", fr.Names[i], solo.Err)
		}
		if solo.Mutator.Checksum != r.Mutator.Checksum {
			t.Errorf("tenant %s: fleet checksum %x != isolated %x",
				fr.Names[i], r.Mutator.Checksum, solo.Mutator.Checksum)
		}
	}
}

// TestFleetCascadeLadder drives the fleet into sustained thrash and
// checks the whole degradation ladder fires: cascades detected, policy
// escalated, and tenant-tagged plus fleet-level flight bundles written
// within quota.
func TestFleetCascadeLadder(t *testing.T) {
	dir := t.TempDir()
	spec := thrashFleetSpec(0.45)
	spec.EscalateTo = PolicyCooperative
	fr := RunFleet(FleetConfig{Spec: spec, FlightDir: dir})
	if fr.Err != nil {
		t.Fatalf("fleet err: %v", fr.Err)
	}
	if fr.Cascades == 0 {
		t.Fatal("no cascades detected under 45% residency with a thrash tenant")
	}
	if !fr.Escalated {
		t.Fatal("ladder never escalated the arbitration policy")
	}
	if fr.InitialPolicy != PolicyGlobalLRU || fr.Policy != PolicyCooperative {
		t.Fatalf("policy %s -> %s, want global-lru -> cooperative", fr.InitialPolicy, fr.Policy)
	}
	if len(fr.FleetDumps) == 0 {
		t.Fatal("cascades fired but no fleet bundle was written")
	}

	// The bundles must parse, carry per-tenant snapshots, and respect
	// the shared dump quota (no unbounded dump storms).
	var b telemetry.FleetBundle
	data, err := os.ReadFile(fr.FleetDumps[len(fr.FleetDumps)-1])
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("fleet bundle does not parse: %v", err)
	}
	if b.Schema != telemetry.FleetBundleSchema {
		t.Fatalf("bundle schema %q", b.Schema)
	}
	if b.Reason != "cascade-thrash" || len(b.Tenants) != len(spec.Tenants) {
		t.Fatalf("bundle reason=%q tenants=%d", b.Reason, len(b.Tenants))
	}
	if b.EscalatedTo != string(PolicyCooperative) {
		t.Fatalf("last bundle escalated_to=%q", b.EscalatedTo)
	}
	var coop, uncoop int
	for _, snap := range b.Tenants {
		if snap.Cooperative {
			coop++
		} else {
			uncoop++
		}
	}
	if coop == 0 || uncoop == 0 {
		t.Fatalf("bundle lost the cooperative split: coop=%d uncoop=%d", coop, uncoop)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	total := 4 + 2*len(spec.Tenants)
	if len(entries) > total {
		t.Fatalf("%d dump files exceed the fleet quota %d", len(entries), total)
	}
	seen := map[string]bool{}
	for _, e := range entries {
		if seen[e.Name()] {
			t.Fatalf("dump filename collision: %s", e.Name())
		}
		seen[e.Name()] = true
	}
}

// TestFleetPolicyDifference is the acceptance experiment in miniature:
// on an identical thrashing fleet, cooperation-aware arbitration must
// measurably shift major faults and tail pauses relative to the
// cooperation-blind baseline — BC is shielded, and the arbiter
// actually vetoed evictions to do it.
func TestFleetPolicyDifference(t *testing.T) {
	run := func(p ArbitrationPolicy) FleetResult {
		spec := thrashFleetSpec(0.5)
		spec.Policy = p
		spec.CascadeMajorFaults = 0 // detector off: pure policy comparison
		fr := RunFleet(FleetConfig{Spec: spec})
		if fr.Err != nil {
			t.Fatalf("fleet err under %s: %v", p, fr.Err)
		}
		return fr
	}
	blind := run(PolicyGlobalLRU)
	aware := run(PolicyCooperative)

	bcMajor := func(fr FleetResult) (uint64, int64) {
		for i, r := range fr.Tenants {
			if r.Config.Collector == BC {
				return r.ProcStats.MajorFaults, fr.PauseP99NS[i]
			}
		}
		t.Fatal("no BC tenant")
		return 0, 0
	}
	blindMajor, blindP99 := bcMajor(blind)
	awareMajor, awareP99 := bcMajor(aware)
	if aware.ArbiterVetoes == 0 {
		t.Fatal("cooperative arbitration never vetoed an eviction")
	}
	if blind.ArbiterVetoes != 0 {
		t.Fatalf("global-lru vetoed %d evictions; it must be a pure pass-through", blind.ArbiterVetoes)
	}
	if awareMajor >= blindMajor {
		t.Errorf("BC major faults: cooperative %d !< global-lru %d", awareMajor, blindMajor)
	}
	if aware.AggMajorFaults == blind.AggMajorFaults {
		t.Error("aggregate major faults identical across policies; arbitration had no measurable effect")
	}
	if awareP99 == blindP99 {
		t.Error("BC pause p99 identical across policies")
	}
	t.Logf("BC major: blind=%d aware=%d; BC p99: blind=%dns aware=%dns; agg major: blind=%d aware=%d; fairness: blind=%.3f aware=%.3f",
		blindMajor, awareMajor, blindP99, awareP99,
		blind.AggMajorFaults, aware.AggMajorFaults, blind.Fairness, aware.Fairness)
}

// TestFleetAfterCollectionHook wires collector invariant checks and
// machine-wide accounting audits into a contended fleet: every
// collection end must observe consistent cross-owner VMM books, and
// every BC collection end a consistent heap.
func TestFleetAfterCollectionHook(t *testing.T) {
	spec := thrashFleetSpec(0.5)
	spec.Policy = PolicyCooperative
	checks := 0
	var firstErr error
	fr := RunFleet(FleetConfig{
		Spec: spec,
		AfterCollection: func(tenant int, col gc.Collector, v *vmm.VMM) {
			checks++
			if firstErr != nil {
				return
			}
			if c, ok := col.(interface{ CheckInvariants() error }); ok {
				if err := c.CheckInvariants(); err != nil {
					firstErr = fmt.Errorf("tenant %d: %w", tenant, err)
				}
			}
			if err := v.CheckAccounting(); err != nil {
				firstErr = fmt.Errorf("tenant %d: machine books: %w", tenant, err)
			}
		},
	})
	if fr.Err != nil {
		t.Fatalf("fleet err: %v", fr.Err)
	}
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	if checks == 0 {
		t.Fatal("AfterCollection never fired; no collections in a contended fleet?")
	}
}

// TestFleetSpecValidate exercises the spec gate shared by the CLI and
// the runner.
func TestFleetSpecValidate(t *testing.T) {
	good := thrashFleetSpec(0.5)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*FleetSpec)
	}{
		{"no tenants", func(s *FleetSpec) { s.Tenants = nil }},
		{"tiny machine", func(s *FleetSpec) { s.PhysBytes = 4096 }},
		{"unknown policy", func(s *FleetSpec) { s.Policy = "optimal" }},
		{"unknown escalation", func(s *FleetSpec) { s.EscalateTo = "oracle" }},
		{"unknown collector", func(s *FleetSpec) { s.Tenants[0].Collector = "zgc" }},
		{"zero heap", func(s *FleetSpec) { s.Tenants[0].HeapBytes = 0 }},
		{"no workload", func(s *FleetSpec) { s.Tenants[0].Program = mutator.Spec{} }},
		{"unknown chaos", func(s *FleetSpec) { s.Tenants[0].Chaos = "gremlins" }},
	}
	for _, tc := range cases {
		s := thrashFleetSpec(0.5)
		tc.mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Zero means "default" in these fields; a negative value is a typed
	// error naming the field, not a value the engine quietly replaces.
	negatives := []struct {
		name   string
		tenant int
		mutate func(*FleetSpec)
	}{
		{"quantum", -1, func(s *FleetSpec) { s.Quantum = -5 }},
		{"balance_every_ns", -1, func(s *FleetSpec) { s.BalanceEveryNS = -1 }},
		{"weight", 1, func(s *FleetSpec) { s.Tenants[1].Weight = -3 }},
	}
	for _, tc := range negatives {
		s := thrashFleetSpec(0.5)
		tc.mutate(&s)
		var ne *NegativeFieldError
		if err := s.Validate(); !errors.As(err, &ne) || ne.Field != tc.name || ne.Tenant != tc.tenant {
			t.Errorf("negative %s: Validate() = %v, want a NegativeFieldError for tenant %d", tc.name, err, tc.tenant)
		}
	}
}

// TestLoadFleetSpec round-trips a spec through JSON and rejects
// unknown fields loudly.
func TestLoadFleetSpec(t *testing.T) {
	spec := DefaultFleetSpec(16, 0.05, 1, 42)
	spec.Policy = PolicyProportional
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := LoadFleetSpec(data)
	if err != nil {
		t.Fatalf("round-trip rejected: %v", err)
	}
	back, _ := json.Marshal(got)
	if string(back) != string(data) {
		t.Fatalf("round trip changed the spec:\n%s\n%s", data, back)
	}
	if _, err := LoadFleetSpec([]byte(`{"tenants": [], "phys_byte": 1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	for _, tail := range []string{` {"tenants":[]}`, ` garbage`, ` }`} {
		if _, err := LoadFleetSpec(append(data[:len(data):len(data)], tail...)); err == nil {
			t.Errorf("spec followed by %q accepted", tail)
		}
	}
	if _, err := LoadFleetSpec(append(data[:len(data):len(data)], " \n\t"...)); err != nil {
		t.Errorf("spec followed by whitespace rejected: %v", err)
	}
	// A setting the spec no longer has is an unknown field, named.
	withRemoved := strings.Replace(string(data), `"tenants":[{`, `"tenants":[{"admit_at_ns":5,`, 1)
	if _, err := LoadFleetSpec([]byte(withRemoved)); err == nil || !strings.Contains(err.Error(), `"admit_at_ns"`) {
		t.Errorf("spec naming admit_at_ns: LoadFleetSpec() = %v, want an unknown-field error naming it", err)
	}
}

// TestReadmeFleetSpecLoads loads the tenant-spec example README.md shows
// users, so the example cannot name a setting the spec does not have.
func TestReadmeFleetSpecLoads(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	var examples []string
	for _, block := range strings.Split(string(readme), "```json\n")[1:] {
		body, _, _ := strings.Cut(block, "```")
		if strings.Contains(body, `"tenants"`) {
			examples = append(examples, body)
		}
	}
	if len(examples) != 1 {
		t.Fatalf("README.md has %d tenant-spec JSON blocks, want 1", len(examples))
	}
	spec, err := LoadFleetSpec([]byte(examples[0]))
	if err != nil {
		t.Fatalf("README.md's tenant-spec example does not load: %v", err)
	}
	if len(spec.Tenants) != 2 || spec.CascadeMajorFaults == 0 {
		t.Fatalf("README.md's example loaded as %d tenants, cascade threshold %d", len(spec.Tenants), spec.CascadeMajorFaults)
	}
}

// TestDefaultFleetSpec sanity-checks the stock mixed fleet: sixteen
// tenants, both cooperative and non-cooperating collectors, noisy
// neighbors armed, machine smaller than the summed heaps.
func TestDefaultFleetSpec(t *testing.T) {
	spec := DefaultFleetSpec(16, 0.05, 1, 42)
	if len(spec.Tenants) != 16 {
		t.Fatalf("tenants = %d", len(spec.Tenants))
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	var coop, chaos int
	var sum uint64
	for _, ts := range spec.Tenants {
		if ts.Collector == BC {
			coop++
		}
		if ts.Chaos != "" {
			chaos++
		}
		sum += ts.HeapBytes
	}
	if coop == 0 || coop == 16 {
		t.Fatalf("fleet is not mixed: %d/16 BC", coop)
	}
	if chaos < 2 {
		t.Fatalf("want >=2 noisy neighbors, got %d", chaos)
	}
	if spec.PhysBytes >= sum {
		t.Fatalf("machine (%d) not overcommitted against %d of heap", spec.PhysBytes, sum)
	}
	if spec.CascadeMajorFaults == 0 {
		t.Fatal("cascade detector unarmed in the default fleet")
	}
}
