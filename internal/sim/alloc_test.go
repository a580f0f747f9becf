package sim

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"testing"
	"time"

	"bookmarkgc/internal/gc"
	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/mutator"
	"bookmarkgc/internal/vmm"
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

// TestEmptyPagesHoldNoBody: the host keeps a page body only while an
// object may occupy the page, and a full body only while it is resident.
// At the end of every collection, no page that a collector's spaces
// report empty (gc.Collector.EmptyWord) holds a body or a stored record,
// and every evicted page holds only its record of nonzero words
// (mem.Space.SwapOut) unless that record would exceed the largest slot
// — for every kind, with memory to spare and paging, under every chaos
// regime and heap policy of the engine table, and in a small stock fleet
// that cascades. A zero-charge write (PokeWord) to an evicted page gives
// it its body back, but the mark engine's are its only ones and it
// replays a touch of each such page before its round ends, so none is
// still evicted at a collection's end.
func TestEmptyPagesHoldNoBody(t *testing.T) {
	fleet := DefaultFleetSpec(8, 0.03, 1, 7936)
	fleet.Policy = PolicyCooperative
	type namedFleet struct {
		name string
		fc   FleetConfig
	}
	runs := []namedFleet{{"fleet/mixed8", FleetConfig{Spec: fleet}}}
	for _, c := range engineCases() {
		runs = append(runs, namedFleet{c.name, oneTenantFleet(c.cfg, c.regime, c.chaosSeed)})
	}
	for _, run := range runs {
		name, fc := run.name, run.fc
		checks, stored := 0, 0
		var firstErr error
		fc.AfterCollection = func(tenant int, col gc.Collector, _ *vmm.VMM) {
			checks++
			err := emptyPagesHoldNoBody(col)
			if err == nil {
				err = evictedPagesHoldRecords(col, &stored)
			}
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("tenant %d (%s), collection %d: %w", tenant, col.Name(), checks, err)
			}
		}
		fr := RunFleet(fc)
		if fr.Err != nil {
			t.Fatalf("%s: %v", name, fr.Err)
		}
		if firstErr != nil || checks == 0 {
			t.Errorf("%s: %d collections checked, first violation: %v", name, checks, firstErr)
		}
		if name == "fleet/mixed8" && (fr.Cascades == 0 || stored == 0) {
			t.Errorf("%s: %d cascades, %d stored records seen: the fleet must cascade and page", name, fr.Cascades, stored)
		}
	}
}

// emptyPagesHoldNoBody reports the first page col's spaces publish as
// empty that still holds a host body.
func emptyPagesHoldNoBody(col gc.Collector) error {
	sp := col.Env().Space
	for wi := 0; wi < (sp.Pages()+63)/64; wi++ {
		for w := col.EmptyWord(wi); w != 0; w &= w - 1 {
			if p := mem.PageID(wi*64 + bits.TrailingZeros64(w)); sp.HasBody(p) || sp.HasRecord(p) {
				return fmt.Errorf("empty page %d holds a body (%v) or a record (%v)", p, sp.HasBody(p), sp.HasRecord(p))
			}
		}
	}
	return nil
}

// recordLimit is the most nonzero words a page's stored record holds:
// the largest slot (2 KB) less the map of nonzero words (one bit a word).
const recordLimit = 2048/mem.WordSize - mem.WordsPage/64

// evictedPagesHoldRecords reports the first evicted page of col's Space
// that holds a body although its nonzero words would fit a record, and
// counts in stored the evicted pages that hold a record.
func evictedPagesHoldRecords(col gc.Collector, stored *int) error {
	env := col.Env()
	sp := env.Space
	for p := mem.PageID(1); p < mem.PageID(sp.Pages()); p++ {
		if env.Proc.State(p) != vmm.Evicted {
			if sp.HasRecord(p) {
				return fmt.Errorf("page %d is %v but holds a record", p, env.Proc.State(p))
			}
			continue
		}
		if sp.HasRecord(p) {
			*stored++
		}
		if !sp.HasBody(p) {
			continue
		}
		nonzero := 0
		for a := mem.PageAddr(p); a < mem.PageAddr(p+1); a += mem.WordSize {
			if sp.PeekWord(a) != 0 {
				nonzero++
			}
		}
		if nonzero <= recordLimit {
			return fmt.Errorf("evicted page %d holds a body of %d nonzero words, which a record would hold", p, nonzero)
		}
	}
	return nil
}
