package mutator_test

import (
	"testing"

	"bookmarkgc/internal/collectors"
	"bookmarkgc/internal/gc"
	"bookmarkgc/internal/mutator"
	"bookmarkgc/internal/sim"
	"bookmarkgc/internal/vmm"
)

// TestMutatorSteadyStateAllocs pins down the arena rewrite's host-side
// contract for every collector's allocation path: once a run is warmed
// up (type tables built, root registry and worklists at steady-state
// capacity, at least one collection behind it), the mutator path —
// allocation, data reads and writes, root updates — performs zero Go
// heap allocations per step. Collections, nursery and full, are excluded
// from the window (their small per-cycle residue — the parallel round's
// worker goroutines, sync.Pool refills after a host GC — is bounded
// separately below); if one lands in it anyway the run retries rather
// than failing on GC residue.
func TestMutatorSteadyStateAllocs(t *testing.T) {
	for _, kind := range sim.AllKinds {
		t.Run(string(kind), func(t *testing.T) {
			clock := vmm.NewClock()
			v := vmm.New(clock, 128<<20, vmm.DefaultCosts())
			env := gc.NewEnv(v, "allocs", 24<<20)
			col, err := sim.NewCollector(kind, env)
			if err != nil {
				t.Fatal(err)
			}
			types := mutator.DeclareTypes(env)
			run := mutator.NewRun(mutator.PseudoJBB().Scale(0.5), col, types, 1)
			collections := func() uint64 { return col.Stats().Nursery + col.Stats().Full }

			// Warm up past at least one collection so every growable
			// structure reaches steady-state capacity.
			for i := 0; collections() < 1; i++ {
				if !run.Step(256) {
					t.Fatalf("program ended during warmup at step %d", i)
				}
				if i > 5000 {
					t.Fatal("no collection in 5000 warmup steps; shrink the heap")
				}
			}
			for attempt := 0; attempt < 5; attempt++ {
				before := collections()
				avg := testing.AllocsPerRun(100, func() {
					if !run.Step(64) {
						t.Fatal("program ended during measurement")
					}
				})
				if collections() != before {
					continue // a collection landed in the window; measure again
				}
				if avg != 0 {
					t.Fatalf("steady-state mutator allocates: %v allocs per 64-alloc step", avg)
				}
				return
			}
			t.Fatal("could not find a collection-free measurement window")
		})
	}
}

// TestCollectionAllocResidue bounds the per-collection allocation
// residue: a full collection may spawn its parallel-mark round
// goroutines and refill pools, but must not allocate per marked object.
// The bound is generous (400 objects per collection) so host-GC-timing
// noise cannot flake it; the regression it guards against is a
// per-object or per-page allocation sneaking into the mark/sweep path,
// which shows up thousands of objects over this budget.
func TestCollectionAllocResidue(t *testing.T) {
	clock := vmm.NewClock()
	v := vmm.New(clock, 64<<20, vmm.DefaultCosts())
	env := gc.NewEnv(v, "residue", 16<<20)
	col := collectors.NewMarkSweep(env)
	types := mutator.DeclareTypes(env)
	run := mutator.NewRun(mutator.PseudoJBB().Scale(0.5), col, types, 1)
	for i := 0; col.Stats().Full < 2; i++ {
		if !run.Step(256) {
			t.Fatalf("program ended during warmup at step %d", i)
		}
		if i > 5000 {
			t.Fatal("no collections in 5000 warmup steps")
		}
	}
	avg := testing.AllocsPerRun(1, func() {
		col.Collect(true)
	})
	if avg > 400 {
		t.Fatalf("full collection allocates %v objects; the mark/sweep path has a per-object allocation", avg)
	}
}
