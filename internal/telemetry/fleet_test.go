package telemetry

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestDumpQuotaPerTenantCap(t *testing.T) {
	q := NewDumpQuota(2, 10, 2)
	// A noisy tenant stops at its own cap...
	if !q.TryTenant("noisy") || !q.TryTenant("noisy") {
		t.Fatal("first two dumps refused")
	}
	if q.TryTenant("noisy") {
		t.Fatal("per-tenant cap not enforced")
	}
	// ...and other tenants still have their full allowance.
	if !q.TryTenant("quiet") {
		t.Fatal("quiet tenant starved by noisy one")
	}
}

func TestDumpQuotaFleetReserveSurvives(t *testing.T) {
	q := NewDumpQuota(100, 4, 2)
	// Tenants can take only total-reserve = 2 slots no matter how many ask.
	granted := 0
	for i := 0; i < 10; i++ {
		if q.TryTenant("t") {
			granted++
		}
	}
	if granted != 2 {
		t.Fatalf("tenants took %d slots, want 2 (reserve breached)", granted)
	}
	// The reserved fleet slots are both still available.
	if !q.TryFleet() || !q.TryFleet() {
		t.Fatal("fleet reserve consumed by tenant dumps")
	}
	if q.TryFleet() {
		t.Fatal("total cap not enforced on fleet dumps")
	}
	tn, fl := q.Used()
	if tn != 2 || fl != 2 {
		t.Fatalf("Used() = (%d,%d), want (2,2)", tn, fl)
	}
}

func TestDumpQuotaCombinedCap(t *testing.T) {
	// Fleet and tenant dumps draw from shares of one total: together
	// they reach it and cannot pass it.
	q := NewDumpQuota(100, 6, 2)
	for i := 0; i < 4; i++ {
		if !q.TryTenant("t") {
			t.Fatalf("tenant dump %d refused within the tenants' share", i)
		}
	}
	for i := 0; i < 2; i++ {
		if !q.TryFleet() {
			t.Fatalf("fleet dump %d refused within the reserve", i)
		}
	}
	if q.TryTenant("u") || q.TryFleet() {
		t.Fatal("combined total cap breached")
	}
	tn, fl := q.Used()
	if tn+fl != 6 {
		t.Fatalf("combined used = %d, want 6", tn+fl)
	}
}

func TestDumpQuotaCascadesLeaveTenantsTheirSlots(t *testing.T) {
	// A fleet that cascades all run long takes its reserve and no more,
	// so its tenants still write their bundles: 4 + 2·tenants slots for
	// four tenants, as sim.RunFleet builds it.
	q := NewDumpQuota(2, 4+2*4, 4)
	fleet := 0
	for i := 0; i < 50; i++ {
		if q.TryFleet() {
			fleet++
		}
	}
	if fleet != 4 {
		t.Fatalf("a cascading fleet took %d slots, want its reserve of 4", fleet)
	}
	for _, tag := range []string{"a", "b", "c", "d"} {
		for i := 0; i < 2; i++ {
			if !q.TryTenant(tag) {
				t.Fatalf("tenant %s refused dump %d after the fleet's cascades", tag, i)
			}
		}
	}
	if tn, fl := q.Used(); tn != 8 || fl != 4 {
		t.Fatalf("Used() = (%d,%d), want (8,4)", tn, fl)
	}
}

func TestFairnessIndex(t *testing.T) {
	if f := FairnessIndex(nil); f != 1 {
		t.Fatalf("empty fairness = %v", f)
	}
	if f := FairnessIndex([]float64{5, 5, 5, 5}); math.Abs(f-1) > 1e-12 {
		t.Fatalf("uniform fairness = %v, want 1", f)
	}
	// One tenant absorbing everything: Jain's index = 1/n.
	if f := FairnessIndex([]float64{12, 0, 0, 0}); math.Abs(f-0.25) > 1e-12 {
		t.Fatalf("single-hog fairness = %v, want 0.25", f)
	}
	skew := FairnessIndex([]float64{10, 1, 1, 1})
	if skew <= 0.25 || skew >= 1 {
		t.Fatalf("skewed fairness = %v, want strictly between 1/n and 1", skew)
	}
}

func TestWriteFleetBundle(t *testing.T) {
	dir := t.TempDir()
	q := NewDumpQuota(1, 4, 2)
	b := &FleetBundle{
		Reason:       "cascade-thrash",
		SimTimeNS:    123,
		WindowFaults: 99,
		Threshold:    50,
		Policy:       "global-lru",
		EscalatedTo:  "cooperative",
		Tenants: []TenantFlightSnap{
			{Tenant: "bc-0", Collector: "BC", Cooperative: true},
			{Tenant: "ms-1", Collector: "CopyMS"},
		},
	}
	path := WriteFleetBundle(dir, 1, b, q)
	if path == "" {
		t.Fatal("bundle refused")
	}
	if filepath.Base(path) != "fleet-001-cascade-thrash.json" {
		t.Fatalf("unexpected bundle name %s", filepath.Base(path))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back FleetBundle
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != FleetBundleSchema || len(back.Tenants) != 2 || back.EscalatedTo != "cooperative" {
		t.Fatalf("bundle round-trip mismatch: %+v", back)
	}
	// Second fleet dump fits in the reserve; a third exceeds the total.
	if WriteFleetBundle(dir, 2, b, q) == "" {
		t.Fatal("second fleet dump refused within reserve")
	}
	q.TryTenant("a")
	q.TryTenant("b")
	if WriteFleetBundle(dir, 3, b, q) != "" {
		t.Fatal("fleet dump allowed past total cap")
	}
}
