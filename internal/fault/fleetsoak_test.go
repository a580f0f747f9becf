package fault_test

// The multi-tenant soak: several tenants — cooperative and not — share
// one machine through the fleet engine while every tenant's
// notification stream runs through its own chaos regime (seeds derived
// per tenant via fault.TenantSeed) and the eviction arbiter redirects
// pressure across owners. After every collection the BC collectors'
// books AND the machine's cross-owner accounting are audited, and each
// tenant's mutator checksum is checked against an isolated nominal run:
// arbitration and chaos may reshape paging, never computation.

import (
	"fmt"
	"os"
	"testing"

	"bookmarkgc/internal/gc"
	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/mutator"
	"bookmarkgc/internal/sim"
	"bookmarkgc/internal/vmm"
)

// fleetSoakSpec builds the soak fleet: four tenants, four different
// chaos regimes, machine at half the summed heaps, cascade ladder
// armed. scale trims the programs under -short.
func fleetSoakSpec(scale float64) sim.FleetSpec {
	tenants := []struct {
		prog   string
		kind   sim.CollectorKind
		regime string
	}{
		{"compress", sim.BC, "drop"},
		{"db", sim.CopyMS, "thrash"},
		{"raytrace", sim.BC, "delay"},
		{"jess", sim.GenMS, "reorder"},
	}
	spec := sim.FleetSpec{
		Seed:               7,
		ChaosSeed:          1234,
		Quantum:            256,
		Policy:             sim.PolicyGlobalLRU,
		EscalateTo:         sim.PolicyCooperative,
		CascadeMajorFaults: 12,
	}
	var sum uint64
	for _, tn := range tenants {
		prog, _ := mutator.ByName(tn.prog)
		prog = prog.Scale(scale)
		ts := sim.TenantSpec{
			Collector: tn.kind,
			Program:   prog,
			HeapBytes: mem.RoundUpPage(2 * prog.MinHeap),
			Chaos:     tn.regime,
		}
		sum += ts.HeapBytes
		spec.Tenants = append(spec.Tenants, ts)
	}
	phys := mem.RoundUpPage(sum / 2)
	if phys < vmm.MinPhysBytes {
		phys = vmm.MinPhysBytes
	}
	spec.PhysBytes = phys
	return spec
}

func fleetSoakScale() float64 {
	if testing.Short() {
		return 0.03
	}
	return 0.06
}

// TestFleetSoakInvariants is the multi-owner acceptance soak: chaos on
// every tenant, cross-owner arbitration live, invariants and machine
// books audited after every collection, checksums differentially
// checked, and the cascade ladder required to have fired a fleet
// flight bundle.
func TestFleetSoakInvariants(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	spec := fleetSoakSpec(fleetSoakScale())

	checks := 0
	var invErr error
	fr := sim.RunFleet(sim.FleetConfig{
		Spec:      spec,
		FlightDir: dir,
		AfterCollection: func(tenant int, col gc.Collector, v *vmm.VMM) {
			checks++
			if invErr != nil {
				return
			}
			if c, ok := col.(interface{ CheckInvariants() error }); ok {
				if err := c.CheckInvariants(); err != nil {
					invErr = fmt.Errorf("tenant %d: %w", tenant, err)
					return
				}
			}
			if err := v.CheckAccounting(); err != nil {
				invErr = fmt.Errorf("tenant %d: cross-owner books: %w", tenant, err)
			}
		},
	})
	if fr.Err != nil {
		t.Fatalf("fleet err (tenant %d): %v", fr.ErrTenant, fr.Err)
	}
	if invErr != nil {
		t.Fatalf("invariants violated mid-soak: %v", invErr)
	}
	if checks == 0 {
		t.Fatal("no collection was ever audited — not a soak")
	}

	// Every tenant survived its own chaos and the neighbors'.
	for i, r := range fr.Tenants {
		if r.Err != nil {
			t.Fatalf("tenant %s failed: %v", fr.Names[i], r.Err)
		}
		if r.Faults == nil {
			t.Fatalf("tenant %s ran without its injector", fr.Names[i])
		}
	}

	// The differential oracle: fleet checksums equal isolated nominal
	// runs (same program, same seed, no chaos, no neighbors).
	for i, r := range fr.Tenants {
		ts := spec.Tenants[i]
		solo := sim.Run(sim.RunConfig{
			Collector: ts.Collector,
			Program:   ts.Program,
			HeapBytes: ts.HeapBytes,
			PhysBytes: 4 * ts.HeapBytes,
			Seed:      spec.Seed + int64(i),
		})
		if solo.Err != nil {
			t.Fatalf("nominal run for %s failed: %v", fr.Names[i], solo.Err)
		}
		if r.Mutator.Checksum != solo.Mutator.Checksum {
			t.Fatalf("tenant %s: checksum %#x != nominal %#x — chaos or arbitration corrupted the heap (faults: %+v)",
				fr.Names[i], r.Mutator.Checksum, solo.Mutator.Checksum, *r.Faults)
		}
	}

	// The soak must actually have thrashed: cascades detected and at
	// least one fleet-wide flight bundle on disk.
	if fr.Cascades == 0 {
		t.Fatal("soak never cascaded; pressure too light to prove anything")
	}
	if len(fr.FleetDumps) == 0 {
		t.Fatal("cascades fired but no fleet flight bundle was written")
	}
	for _, p := range fr.FleetDumps {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("fleet bundle missing on disk: %v", err)
		}
	}
}

// TestFleetSoakReplayDeterminism replays the full chaos soak and
// requires bit-identical fleet outcomes: same checksums, same injector
// counts, same cascade count, same simulated clock.
func TestFleetSoakReplayDeterminism(t *testing.T) {
	spec := fleetSoakSpec(0.03)
	run := func() sim.FleetResult {
		fr := sim.RunFleet(sim.FleetConfig{Spec: spec})
		if fr.Err != nil {
			t.Fatalf("fleet err: %v", fr.Err)
		}
		return fr
	}
	a, b := run(), run()
	if a.ElapsedSecs != b.ElapsedSecs || a.Cascades != b.Cascades ||
		a.AggMajorFaults != b.AggMajorFaults || a.ArbiterVetoes != b.ArbiterVetoes {
		t.Fatalf("replay diverged: (%v,%d,%d,%d) vs (%v,%d,%d,%d)",
			a.ElapsedSecs, a.Cascades, a.AggMajorFaults, a.ArbiterVetoes,
			b.ElapsedSecs, b.Cascades, b.AggMajorFaults, b.ArbiterVetoes)
	}
	for i := range a.Tenants {
		ra, rb := a.Tenants[i], b.Tenants[i]
		if ra.Mutator.Checksum != rb.Mutator.Checksum || *ra.Faults != *rb.Faults {
			t.Fatalf("tenant %s diverged on replay", a.Names[i])
		}
	}
}
