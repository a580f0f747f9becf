package sim

import (
	"fmt"
	"strings"
	"testing"

	"bookmarkgc/internal/fault"
	"bookmarkgc/internal/gc"
	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/mutator"
	"bookmarkgc/internal/vmm"
)

// oomJBB is pseudoJBB scaled so its live set (~7 MB) cannot fit the
// 2 MB heaps the OOM tests hand it.
func oomJBB() mutator.Spec { return mutator.PseudoJBB().Scale(0.35) }

func TestRunRecoversOOM(t *testing.T) {
	for _, kind := range []CollectorKind{BC, SemiSpace} {
		t.Run(string(kind), func(t *testing.T) {
			res := Run(RunConfig{
				Collector: kind,
				Program:   oomJBB(),
				HeapBytes: 2 << 20,
				PhysBytes: 64 << 20,
				Seed:      1,
			})
			if res.Err == nil {
				t.Fatal("overcommitted run completed without error")
			}
			oom, ok := res.Err.(gc.ErrOutOfMemory)
			if !ok {
				t.Fatalf("Err = %v, want gc.ErrOutOfMemory", res.Err)
			}
			if oom.Collector == "" || oom.HeapPages == 0 {
				t.Fatalf("OOM error lacks context: %+v", oom)
			}
			// The partial measurements up to the failure must survive.
			if res.Mutator.AllocatedBytes == 0 {
				t.Fatal("no partial mutator result reported")
			}
			if res.ElapsedSecs <= 0 {
				t.Fatal("no simulated time recorded before the failure")
			}
		})
	}
}

func TestTwoJVMsSurviveOOM(t *testing.T) {
	// Identically configured JVMs all outgrow their budgets; the failures
	// must stay per-JVM — the fleet itself returns one Result per JVM with
	// Err set, exactly as a sweep needs, instead of the first OOM
	// panicking the whole experiment.
	fr := twoJVMs(RunConfig{
		Collector: BC,
		Program:   oomJBB(),
		HeapBytes: 2 << 20,
		PhysBytes: 64 << 20,
		Seed:      5,
	})
	if fr.Err != nil || len(fr.Tenants) != 2 {
		t.Fatalf("%d results, err %v; want 2 per-JVM results", len(fr.Tenants), fr.Err)
	}
	for i, r := range fr.Tenants {
		if r.Err == nil {
			t.Fatalf("jvm %d completed despite overcommit", i)
		}
		if _, ok := r.Err.(gc.ErrOutOfMemory); !ok {
			t.Fatalf("jvm %d: Err = %v, want gc.ErrOutOfMemory", i, r.Err)
		}
		if r.Timeline.End <= r.Timeline.Start {
			t.Fatalf("jvm %d has empty timeline", i)
		}
	}
}

// TestBadGeometryIsAnError: a machine below vmm.MinPhysBytes and a zero
// heap are configuration errors a sweep reports per cell, not panics
// that escape the run before its out-of-memory recover.
func TestBadGeometryIsAnError(t *testing.T) {
	for _, tc := range []struct {
		name       string
		heap, phys uint64
		want       string
	}{
		{"zero phys", 4 << 20, 0, fmt.Sprintf("PhysBytes 0 below the machine minimum %d", vmm.MinPhysBytes)},
		{"phys one page short", 4 << 20, vmm.MinPhysBytes - mem.PageSize, fmt.Sprintf("below the machine minimum %d", vmm.MinPhysBytes)},
		{"zero heap", 0, 64 << 20, "HeapBytes is 0, below the minimum 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := RunConfig{Collector: BC, Program: tinyJBB(), HeapBytes: tc.heap, PhysBytes: tc.phys, Seed: 1}
			if r := Run(cfg); r.Err == nil || !strings.Contains(r.Err.Error(), tc.want) {
				t.Errorf("Run: Err = %v, want it to say %q", r.Err, tc.want)
			}
			if fr := twoJVMs(cfg); fr.Err == nil || !strings.Contains(fr.Err.Error(), tc.want) || len(fr.Tenants) != 0 {
				t.Errorf("two JVMs: %d results, Err = %v; want none and an error saying %q", len(fr.Tenants), fr.Err, tc.want)
			}
		})
	}
}

func TestChaosRunDeterministic(t *testing.T) {
	// Same chaos regime, same seeds: the interposed faults are part of
	// the simulation, so two runs must agree bit for bit — checksum,
	// simulated time, and injection counts.
	cfg, ok := fault.ByName("thrash", 11)
	if !ok {
		t.Fatal("unknown regime")
	}
	one := func() Result {
		return Run(RunConfig{
			Collector: BC,
			Program:   tinyJBB(),
			HeapBytes: 4 << 20,
			PhysBytes: 12 << 20,
			Seed:      7,
			Pressure:  &Pressure{InitialBytes: 9 << 20},
			Chaos:     &cfg,
		})
	}
	a, b := one(), one()
	if a.Err != nil {
		t.Fatalf("chaos run failed: %v", a.Err)
	}
	if a.Faults == nil || b.Faults == nil {
		t.Fatal("chaos run reported no fault stats")
	}
	if a.Faults.EvictsSeen == 0 {
		t.Fatal("injector saw no eviction notices; regime had no effect")
	}
	if a.Mutator.Checksum != b.Mutator.Checksum {
		t.Fatalf("checksums diverge: %#x vs %#x", a.Mutator.Checksum, b.Mutator.Checksum)
	}
	if a.ElapsedSecs != b.ElapsedSecs {
		t.Fatalf("simulated time diverges: %v vs %v", a.ElapsedSecs, b.ElapsedSecs)
	}
	if *a.Faults != *b.Faults {
		t.Fatalf("fault stats diverge:\n%+v\n%+v", *a.Faults, *b.Faults)
	}
}
