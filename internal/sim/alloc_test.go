package sim

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/mutator"
)

// warmRunBudget bounds what a warm process allocates on the host for one
// small pressured run: the run's Go objects (collector, spaces'
// descriptors, mutator, timeline), but none of the per-page tables,
// queues, buffers or page bodies, which come from the process's free
// lists once one run has released them.
const warmRunBudget = 128 << 10

// TestWarmRunAllocatesLittle runs a fig4-like job — GenMS on pseudoJBB
// at scale 0.03 under a calibrated ramp to 0.55 of the heap, a target no
// whole number of pages meets — twice, and bounds the host bytes the
// second run allocates.
func TestWarmRunAllocatesLittle(t *testing.T) {
	const scale = 0.03
	scaled := func(paperBytes float64) uint64 { return mem.RoundUpPage(uint64(paperBytes * scale)) }
	prog := mutator.PseudoJBB().Scale(scale)
	heap := scaled(77 << 20)
	base := Run(RunConfig{Collector: BC, Program: prog, HeapBytes: heap, PhysBytes: 4 * heap, Seed: 1})
	if base.Err != nil {
		t.Fatal(base.Err)
	}
	avail := uint64(0.55 * float64(heap))
	if avail%mem.PageSize == 0 {
		t.Fatalf("target %d is page-aligned", avail)
	}
	cfg := RunConfig{
		Collector: GenMS, Program: prog, HeapBytes: heap, PhysBytes: 2 * heap, Seed: 1,
		Pressure: CalibratedDynamicPressure(2*heap, avail, scaled(30<<20), scaled(1<<20),
			time.Duration(base.ElapsedSecs*float64(time.Second))),
	}
	first := Run(cfg)
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	second := Run(cfg)
	runtime.ReadMemStats(&after)
	if second.ElapsedSecs != first.ElapsedSecs || second.Mutator.Checksum != first.Mutator.Checksum {
		t.Fatalf("the warm run differs: %v s, checksum %x; first %v s, %x",
			second.ElapsedSecs, second.Mutator.Checksum, first.ElapsedSecs, first.Mutator.Checksum)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("warm run: %d bytes in %d allocations, %d major faults", got, after.Mallocs-before.Mallocs, second.ProcStats.MajorFaults)
	if got > warmRunBudget {
		t.Errorf("warm run allocated %d bytes, budget %d", got, warmRunBudget)
	}
}

// warmFleetBudget bounds what a warm process allocates on the host for
// one small flight-recorded fleet: the tenants' Go objects, their flight
// recorders' windows and rings, the bundles written, and the regrowth of
// root arrays and page queues, which come back from their free lists in
// the order they were retired, not by size (≈ 0.85 MB of the ≈ 1.45 MB
// measured; a third fleet finds them grown and takes ≈ 0.6 MB). The
// other tables, gray stacks, runs, trace buffers and synthesis state
// come from the process's free lists once one fleet has released them.
const warmFleetBudget = 2 << 20

// TestWarmFleetAllocatesLittle runs an 8-tenant flight-recorded fleet —
// DefaultFleetSpec's mix, synthesized tenants included, under the
// cooperative policy and the MemBalancer — twice, and bounds the host
// bytes the second run allocates.
func TestWarmFleetAllocatesLittle(t *testing.T) {
	spec := DefaultFleetSpec(8, 0.03, 1, 7936)
	spec.Policy = PolicyCooperative
	spec.HeapPolicy = "membalancer"
	spec.BalanceEveryNS = int64(5 * time.Millisecond)
	first := RunFleet(FleetConfig{Spec: spec, FlightDir: t.TempDir()})
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	cfg := FleetConfig{Spec: spec, FlightDir: t.TempDir()}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	second := RunFleet(cfg)
	runtime.ReadMemStats(&after)
	for i := range first.Tenants {
		f, s := first.Tenants[i], second.Tenants[i]
		if s.ElapsedSecs != f.ElapsedSecs || s.Mutator.Checksum != f.Mutator.Checksum || s.ProcStats != f.ProcStats {
			t.Fatalf("tenant %d differs in the warm fleet: %v s, checksum %x; first %v s, %x",
				i, s.ElapsedSecs, s.Mutator.Checksum, f.ElapsedSecs, f.Mutator.Checksum)
		}
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("warm fleet: %d bytes in %d allocations, %d cascades", got, after.Mallocs-before.Mallocs, second.Cascades)
	if got > warmFleetBudget {
		t.Errorf("warm fleet allocated %d bytes, budget %d", got, warmFleetBudget)
	}
}

// TestRunsTradeTablesAcrossGoroutines: runs on several goroutines at
// once, as a parallel sweep's jobs do, hand their tables to each other
// through the free lists and still measure what each measures alone.
// Run it under -race.
func TestRunsTradeTablesAcrossGoroutines(t *testing.T) {
	kinds := []CollectorKind{BC, GenMS, GenCopy, MarkSweep}
	cfg := func(k CollectorKind) RunConfig {
		return RunConfig{Collector: k, Program: tinyJBB(), HeapBytes: 8 << 20, PhysBytes: 16 << 20,
			Seed: 7, Pressure: &Pressure{InitialBytes: 16<<20 - 3<<20}}
	}
	want := make([]Result, len(kinds))
	for i, k := range kinds {
		want[i] = Run(cfg(k))
		if want[i].Err != nil || want[i].ProcStats.MajorFaults == 0 {
			t.Fatalf("%s: %v, %d major faults: the run does not page", k, want[i].Err, want[i].ProcStats.MajorFaults)
		}
	}
	const rounds = 3
	var wg sync.WaitGroup
	got := make([][rounds]Result, len(kinds))
	for i, k := range kinds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				got[i][r] = Run(cfg(k))
			}
		}()
	}
	wg.Wait()
	for i, k := range kinds {
		for r := range rounds {
			g, w := got[i][r], want[i]
			if g.ElapsedSecs != w.ElapsedSecs || g.Mutator.Checksum != w.Mutator.Checksum || g.ProcStats != w.ProcStats {
				t.Errorf("%s, round %d: %v s, checksum %x, %+v; alone %v s, %x, %+v", k, r,
					g.ElapsedSecs, g.Mutator.Checksum, g.ProcStats, w.ElapsedSecs, w.Mutator.Checksum, w.ProcStats)
			}
		}
	}
}
