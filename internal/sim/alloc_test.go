package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"bookmarkgc/internal/fault"
	"bookmarkgc/internal/gc"
	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/metrics"
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

// benchmarkFleets returns the repository benchmark's two fleets at
// scale 0.05 and the benchmark's seed: eight tenants under the
// cooperative policy and the MemBalancer, flight-recorded into dir, and
// sixteen under global LRU.
func benchmarkFleets(dir string, seed int64) [2]FleetConfig {
	chaosSeed := seed*7919 + 17
	coop := DefaultFleetSpec(8, 0.05, seed, chaosSeed)
	coop.Policy = PolicyCooperative
	coop.HeapPolicy = "membalancer"
	coop.BalanceEveryNS = int64(5 * time.Millisecond)
	lru := DefaultFleetSpec(16, 0.05, seed, chaosSeed)
	lru.Policy = PolicyGlobalLRU
	return [2]FleetConfig{{Spec: coop, FlightDir: dir, MarkWorkers: 2}, {Spec: lru, MarkWorkers: 2}}
}

// resetDir empties dir, as the benchmark does before every pass: bundle
// file names are numbered from what is already there.
func resetDir(t *testing.T, dir string) {
	t.Helper()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
}

// warmPassBudget bounds what a warm process allocates on the host for
// one pass of the benchmark's two fleets: roughly the results handed
// back (each tenant's Result and pause list, the fleet report) and what
// the file system calls of the flight dumps make. Everything a run grows
// or builds — tenants, collectors and their spaces, flight rings,
// series and the bundles rendered from them, page records, maps and
// lists of the heap and the collectors, queues, root arrays, gray
// stacks, synthesized traces — comes back from the process's free lists
// once one pass has released it. A warm pass's garbage is never
// collected before the Go heap reaches its goal, so all of it is
// resident: what a pass allocates is what the process's resident set
// creeps by.
const warmPassBudget = 48 << 10

// TestWarmFleetAllocatesLittle runs the benchmark's two fleets once
// cold, then three more passes, and bounds the host bytes each warm
// pass allocates, on seed 1 and on seeds 5 and 8, whose tenants also
// write fail-safe bundles. Every warm tenant's results must equal the
// first pass's.
func TestWarmFleetAllocatesLittle(t *testing.T) {
	for _, seed := range []int64{1, 5, 8} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { warmFleetAllocatesLittle(t, seed) })
	}
}

func warmFleetAllocatesLittle(t *testing.T, seed int64) {
	dir := filepath.Join(t.TempDir(), "flight")
	fleets := benchmarkFleets(dir, seed)
	var first [2]FleetResult
	for pass := 0; pass < 4; pass++ {
		var got uint64
		var results [2]FleetResult
		for i, cfg := range fleets {
			resetDir(t, dir)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			results[i] = RunFleet(cfg)
			runtime.ReadMemStats(&after)
			got += after.TotalAlloc - before.TotalAlloc
			if results[i].Err != nil {
				t.Fatalf("pass %d, fleet %d: %v", pass, i, results[i].Err)
			}
		}
		if pass == 0 {
			first = results
			continue
		}
		for i := range results {
			for k := range first[i].Tenants {
				f, s := first[i].Tenants[k], results[i].Tenants[k]
				if s.ElapsedSecs != f.ElapsedSecs || s.Mutator.Checksum != f.Mutator.Checksum || s.ProcStats != f.ProcStats {
					t.Fatalf("pass %d, fleet %d: tenant %d differs: %v s, checksum %x; first %v s, %x",
						pass, i, k, s.ElapsedSecs, s.Mutator.Checksum, f.ElapsedSecs, f.Mutator.Checksum)
				}
			}
		}
		t.Logf("warm pass %d: %d bytes, %d cascades", pass, got, results[0].Cascades+results[1].Cascades)
		if got > warmPassBudget {
			t.Errorf("warm pass %d allocated %d bytes, budget %d", pass, got, warmPassBudget)
		}
	}
}

// TestRecycledScratchCarriesNoState runs fleet A (eight tenants,
// flight-recorded), then fleet B (sixteen), then A again. What A's
// second run takes from the free lists was last used by B and by A's
// first run; if any of it carried state, A's results or bundles would
// differ. Its FleetResult and every flight bundle must be byte-identical
// across A's two runs. A is the benchmark's eight-tenant fleet with its
// first tenant's heap at 3 MB, so that a tenant also dumps fail-safe
// bundles, which render its recorder's series and event ring.
func TestRecycledScratchCarriesNoState(t *testing.T) {
	root := t.TempDir()
	dirA1, dirA2 := filepath.Join(root, "a1"), filepath.Join(root, "a2")
	a := benchmarkFleets(dirA1, 1)[0]
	a.Spec.Tenants = slices.Clone(a.Spec.Tenants)
	a.Spec.Tenants[0].HeapBytes = 3 << 20
	b := benchmarkFleets("", 1)[1]
	first := RunFleet(a)
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	if r := RunFleet(b); r.Err != nil {
		t.Fatal(r.Err)
	}
	a.FlightDir = dirA2
	second := RunFleet(a)
	if second.Err != nil {
		t.Fatal(second.Err)
	}
	want, got := fleetResultBytes(t, first), fleetResultBytes(t, second)
	if !bytes.Equal(got, want) {
		t.Errorf("fleet A differs after fleet B:\n--- first\n%s\n--- second\n%s", want, got)
	}
	bundles := 0
	entries, err := os.ReadDir(dirA1)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		w, err := os.ReadFile(filepath.Join(dirA1, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		g, err := os.ReadFile(filepath.Join(dirA2, e.Name()))
		if err != nil {
			t.Errorf("bundle %s: %v", e.Name(), err)
			continue
		}
		if !bytes.Equal(g, w) {
			t.Errorf("bundle %s differs after fleet B", e.Name())
		}
		bundles++
	}
	if again, _ := os.ReadDir(dirA2); len(again) != len(entries) {
		t.Errorf("fleet A wrote %d bundles, then %d", len(entries), len(again))
	}
	if bundles == 0 || !slices.ContainsFunc(entries, func(e os.DirEntry) bool { return strings.HasPrefix(e.Name(), "flight-") }) {
		t.Error("fleet A wrote no tenant flight bundle: the test lost its ring and series")
	}
}

// fleetResultBytes renders every value a FleetResult holds, with the
// bundle paths reduced to their file names and the run configurations'
// host-side pointers left out.
func fleetResultBytes(t *testing.T, fr FleetResult) []byte {
	t.Helper()
	type tenant struct {
		Timeline    metrics.Timeline
		Mutator     mutator.Result
		GCStats     gc.Stats
		ProcStats   vmm.ProcStats
		ElapsedSecs float64
		Err         string
		Faults      *fault.Stats
	}
	out := struct {
		FleetStats
		Dumps   []string
		VMM     vmm.Stats
		Names   []string
		Tenants []tenant
	}{FleetStats: fr.FleetStats, VMM: fr.VMM, Names: fr.Names}
	for _, p := range fr.FleetDumps {
		out.Dumps = append(out.Dumps, filepath.Base(p))
	}
	for _, r := range fr.Tenants {
		tr := tenant{r.Timeline, r.Mutator, r.GCStats, r.ProcStats, r.ElapsedSecs, "", r.Faults}
		if r.Err != nil {
			tr.Err = r.Err.Error()
		}
		out.Tenants = append(out.Tenants, tr)
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return data
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
