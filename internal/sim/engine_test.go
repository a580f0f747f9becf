package sim

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"bookmarkgc/internal/core"
	"bookmarkgc/internal/fault"
	"bookmarkgc/internal/gc"
	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/vmm"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// runDigestLine flattens every simulated observable Run and RunFleet both
// report for one process into a string.
func runDigestLine(r Result) string {
	var faults fault.Stats
	if r.Faults != nil {
		faults = *r.Faults
	}
	return fmt.Sprintf("elapsed=%v proc=%+v gcs=%d/%d/%d/%d bookmarked=%d evicted=%d checksum=%x allocs=%d "+
		"faults=%+v timeline=%d..%d pauses=%d total=%d seed=%d policy=%q err=%v",
		r.ElapsedSecs, r.ProcStats,
		r.GCStats.Nursery, r.GCStats.Full, r.GCStats.Compactions, r.GCStats.FailSafe,
		r.GCStats.Bookmarked, r.GCStats.PagesEvicted, r.Mutator.Checksum, r.Mutator.Allocations,
		faults, r.Timeline.Start, r.Timeline.End, r.Timeline.Count(), r.Timeline.TotalPause(),
		r.Config.Seed, r.Config.HeapPolicy, r.Err)
}

// oneTenantFleet is cfg as a one-tenant fleet: same machine, same seed,
// Run's quantum, and — for chaos — the regime whose TenantSeed-derived
// injector seed the caller put in cfg.Chaos.
func oneTenantFleet(cfg RunConfig, regime string, chaosSeed int64) FleetConfig {
	quantum := runQuantum
	if regime != "" {
		quantum = chaosQuantum
	}
	return FleetConfig{Spec: FleetSpec{
		Tenants: []TenantSpec{{
			Collector: cfg.Collector, Program: cfg.Program, HeapBytes: cfg.HeapBytes,
			Chaos: regime, HeapPolicy: cfg.HeapPolicy,
		}},
		PhysBytes: cfg.PhysBytes,
		Quantum:   quantum,
		Seed:      cfg.Seed,
		ChaosSeed: chaosSeed,
	}}
}

// engineCase is one row of the engine's run table: a Run configuration
// and, for the chaos rows, the regime and fleet chaos seed that make the
// same run as a one-tenant fleet.
type engineCase struct {
	name       string
	cfg        RunConfig
	regime     string
	chaosSeed  int64
	wantPaging bool
}

// engineCases is every collector kind without and with paging, then
// every chaos regime on a paging BC, then BC climbing its whole
// allocation ladder on its own: a heap squeezed below its footprint with
// no pressure and no injected fault, where BC runs out of room after its
// full collections and reaches compaction and the fail-safe itself
// (gcsim -collector BC -scale 0.02 -heap 77 -phys 42).
func engineCases() []engineCase {
	prog := tinyJBB()
	heap := mem.RoundUpPage(2 * prog.MinHeap)
	var cases []engineCase
	for _, kind := range KnownKinds {
		for _, frac := range []float64{2, 0.6} {
			cfg := RunConfig{Collector: kind, Program: prog, HeapBytes: heap,
				PhysBytes: mem.RoundUpPage(uint64(frac * float64(heap))), Seed: 3}
			cases = append(cases, engineCase{fmt.Sprintf("%s@%.1f", kind, frac), cfg, "", 0, frac < 1})
		}
	}
	for _, regime := range fault.Regimes() {
		const chaosSeed = 11
		fc, _ := fault.ByName(regime, fault.TenantSeed(chaosSeed, 0))
		cfg := RunConfig{Collector: BC, Program: prog, HeapBytes: heap,
			PhysBytes: mem.RoundUpPage(heap * 6 / 10), Seed: 3, Chaos: &fc, HeapPolicy: "bc-shrink"}
		cases = append(cases, engineCase{"chaos/" + regime, cfg, regime, chaosSeed, true})
	}
	mb := func(n float64) uint64 { return mem.RoundUpPage(uint64(n * 0.02 * (1 << 20))) }
	cfg := RunConfig{Collector: BC, Program: prog, HeapBytes: mb(77), PhysBytes: mb(42), Seed: 1}
	cases = append(cases, engineCase{"ladder/BC", cfg, "", 0, true})
	return cases
}

// soloRuns memoizes Run over the engine table, which two tests read.
var soloRuns = map[string]Result{}

func soloRun(c engineCase) Result {
	r, ok := soloRuns[c.name]
	if !ok {
		r = Run(c.cfg)
		soloRuns[c.name] = r
	}
	return r
}

// TestRunEqualsOneTenantFleet pins the engine's central claim: a
// single-JVM run IS a one-tenant fleet. Every row of the engine table
// must measure bit-identically through Run and through RunFleet.
func TestRunEqualsOneTenantFleet(t *testing.T) {
	for _, c := range engineCases() {
		solo := soloRun(c)
		fr := RunFleet(oneTenantFleet(c.cfg, c.regime, c.chaosSeed))
		if fr.Err != nil {
			t.Fatalf("%s: fleet: %v", c.name, fr.Err)
		}
		if a, b := runDigestLine(solo), runDigestLine(fr.Tenants[0]); a != b {
			t.Errorf("%s: Run and one-tenant RunFleet differ\n run:   %s\n fleet: %s", c.name, a, b)
		}
		if c.wantPaging && solo.ProcStats.Evictions == 0 {
			t.Errorf("%s: memory level did not page", c.name)
		}
	}
}

// TestCheckInvariantsChargesNothing: BC's invariant check, hooked after
// every collection, reads only through PeekWord, so the run it checks is
// the run without it to the nanosecond — at the paging point, where BC
// bookmarks, compacts and falls back to its fail-safe, and under a chaos
// regime.
func TestCheckInvariantsChargesNothing(t *testing.T) {
	for _, c := range engineCases() {
		if c.name != "BC@0.6" && c.name != "chaos/duplicate" {
			continue
		}
		checks := 0
		var firstErr error
		fc := oneTenantFleet(c.cfg, c.regime, c.chaosSeed)
		fc.AfterCollection = func(_ int, col gc.Collector, _ *vmm.VMM) {
			checks++
			if err := col.(*core.BC).CheckInvariants(); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("collection %d: %w", checks, err)
			}
		}
		fr := RunFleet(fc)
		if firstErr != nil || checks == 0 {
			t.Fatalf("%s: %d collections checked, first violation: %v", c.name, checks, firstErr)
		}
		if a, b := runDigestLine(soloRun(c)), runDigestLine(fr.Tenants[0]); a != b {
			t.Errorf("%s: checking after each of %d collections changed the run\n unchecked: %s\n checked:   %s", c.name, checks, a, b)
		}
	}
}

// TestRunDigestsGolden is the in-tree gate for host-only changes: the
// ns-exact digest of every row of the engine table is pinned, so a change
// that claims to leave the simulation alone (a faster access path, a
// refactor of collector glue) is checked against the commit that last
// meant to move it, with no parent checkout. Regenerate after an
// intentional change to simulated behaviour with:
//
//	go test ./internal/sim -run TestRunDigestsGolden -update
func TestRunDigestsGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, c := range engineCases() {
		fmt.Fprintf(&buf, "%s\t%s\n", c.name, runDigestLine(soloRun(c)))
	}
	got := buf.Bytes()

	path := filepath.Join("testdata", "run_digests.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d digest rows, golden file %s has %d", len(gotLines), path, len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("simulated behaviour drifted from %s\n got:  %s\n want: %s", path, gotLines[i], wantLines[i])
		}
	}
}

// TestFleetTenantConfig: a fleet tenant's Result.Config states the seed
// and heap policy it actually ran with, fleet-wide defaults applied.
func TestFleetTenantConfig(t *testing.T) {
	prog := tinyJBB()
	ts := TenantSpec{Collector: GenMS, Program: prog, HeapBytes: mem.RoundUpPage(2 * prog.MinHeap), Seed: 10}
	own := ts
	own.HeapPolicy = "membalancer"
	fr := RunFleet(FleetConfig{Spec: FleetSpec{
		Tenants: []TenantSpec{ts, own}, PhysBytes: 4 * ts.HeapBytes, Seed: 100, HeapPolicy: "fixed",
	}})
	if fr.Err != nil {
		t.Fatal(fr.Err)
	}
	for i, want := range []RunConfig{{Seed: 110, HeapPolicy: "fixed"}, {Seed: 111, HeapPolicy: "membalancer"}} {
		got := fr.Tenants[i].Config
		if got.Seed != want.Seed || got.HeapPolicy != want.HeapPolicy {
			t.Errorf("tenant %d ran as seed=%d policy=%q, want seed=%d policy=%q",
				i, got.Seed, got.HeapPolicy, want.Seed, want.HeapPolicy)
		}
	}
}

// assembled builds spec's fleet up to, not including, the scheduler.
func assembled(t *testing.T, spec FleetSpec) *fleetRun {
	t.Helper()
	f := newFleetRun(FleetConfig{Spec: spec})
	t.Cleanup(f.release)
	if i, err := f.assemble(); err != nil {
		t.Fatalf("assemble: tenant %d: %v", i, err)
	}
	return f
}

// TestScheduleSkipsIdleToEarliestAdmit: with every live tenant waiting
// on admission, one scheduling turn steps nobody and jumps the clock to
// the earliest admit point exactly; the next turn steps only the tenant
// admitted there.
func TestScheduleSkipsIdleToEarliestAdmit(t *testing.T) {
	prog := tinyJBB()
	ts := TenantSpec{Collector: MarkSweep, Program: prog, HeapBytes: mem.RoundUpPage(2 * prog.MinHeap)}
	late, early := ts, ts
	late.AdmitAtNS = int64(70 * time.Millisecond)
	early.AdmitAtNS = int64(30 * time.Millisecond)
	f := assembled(t, FleetSpec{Tenants: []TenantSpec{late, early}, PhysBytes: 4 * ts.HeapBytes})

	if !f.turn() {
		t.Fatal("turn reported no live tenants")
	}
	if now := f.clock.Now(); now != 30*time.Millisecond {
		t.Fatalf("idle turn left the clock at %v, want the earliest admit point 30ms", now)
	}
	for _, tn := range f.tenants {
		if n := tn.run.Finish().Allocations; n != 0 {
			t.Fatalf("%s allocated %d objects before its admission", tn.env.Proc.Name(), n)
		}
	}
	f.turn()
	if f.tenants[0].run.Finish().Allocations != 0 || f.tenants[1].run.Finish().Allocations == 0 {
		t.Fatal("the turn at 30ms should step the early tenant and only it")
	}
	f.schedule()
	for _, tn := range f.tenants {
		if !tn.done || tn.failed != nil {
			t.Fatalf("%s: done=%v failed=%v after schedule", tn.env.Proc.Name(), tn.done, tn.failed)
		}
	}
}

// TestLadderObserve: hot windows count only while consecutive; a cool
// window and a cascade both restart the count.
func TestLadderObserve(t *testing.T) {
	l := ladder{threshold: 12, sustain: 2, last: 100}
	steps := []struct {
		cur       uint64
		delta     uint64
		cascaded  bool
		hotAfter  int
		situation string
	}{
		{112, 12, false, 1, "first hot window"},
		{115, 3, false, 0, "cool window resets"},
		{130, 15, false, 1, "hot again counts from one"},
		{142, 12, true, 0, "second consecutive hot window cascades and resets"},
		{160, 18, false, 1, "a cascade needs a fresh run of hot windows"},
		{172, 12, true, 0, "which cascades again"},
	}
	for _, s := range steps {
		delta, cascaded := l.observe(s.cur)
		if delta != s.delta || cascaded != s.cascaded || l.hot != s.hotAfter {
			t.Fatalf("%s: observe(%d) = (%d, %v) hot=%d, want (%d, %v) hot=%d",
				s.situation, s.cur, delta, cascaded, l.hot, s.delta, s.cascaded, s.hotAfter)
		}
	}
}

// TestArmLadder: an unset threshold arms nothing; a set one applies the
// window and sustain defaults and ticks on the simulated clock, so a
// process thrashing the shared machine cascades the fleet with no
// scheduler running, and a quiet window afterwards cools the detector.
func TestArmLadder(t *testing.T) {
	prog := tinyJBB()
	spec := FleetSpec{
		Tenants:   []TenantSpec{{Collector: MarkSweep, Program: prog, HeapBytes: mem.RoundUpPage(2 * prog.MinHeap)}},
		PhysBytes: vmm.MinPhysBytes,
	}
	f := assembled(t, spec)
	f.armLadder()
	if !reflect.DeepEqual(f.ladder, ladder{}) {
		t.Fatalf("ladder armed without a threshold: %+v", f.ladder)
	}

	spec.CascadeMajorFaults = 5 // half of what a 50ms window can hold at 5ms a fault
	f = assembled(t, spec)
	f.armLadder()
	if f.ladder.window != 50*time.Millisecond || f.ladder.sustain != 2 {
		t.Fatalf("defaults: window=%v sustain=%d, want 50ms and 2", f.ladder.window, f.ladder.sustain)
	}
	// Cycling over twice the machine's frames faults on every touch once
	// the first pass has pushed the early pages out to swap.
	thrasher := f.v.NewProc("thrasher", 2*vmm.MinPhysBytes)
	pages := mem.PageID(2 * vmm.MinPhysBytes / mem.PageSize)
	for f.cascades == 0 && f.clock.Now() < 10*time.Second {
		for pg := mem.PageID(0); pg < pages; pg++ {
			thrasher.Touch(pg, true)
		}
	}
	if f.cascades == 0 {
		t.Fatalf("no cascade after %v and %d major faults", f.clock.Now(), f.v.Stats().MajorFaults)
	}
	f.clock.Advance(2 * f.ladder.window)
	if f.ladder.hot != 0 {
		t.Fatalf("hot=%d after quiet windows, want 0", f.ladder.hot)
	}
}
