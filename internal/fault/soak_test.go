package fault_test

// The randomized soak harness of the fault-injection tentpole: run a real
// mutator program on a BC under severe memory pressure while an Injector
// corrupts the VM-cooperation notification stream, and audit the
// collector's books with core.CheckInvariants after every single
// collection. The mutator checksum doubles as a differential oracle — it
// depends only on (program, seed), so any divergence from the nominal run
// means chaos corrupted the heap.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"bookmarkgc/internal/core"
	"bookmarkgc/internal/fault"
	"bookmarkgc/internal/gc"
	"bookmarkgc/internal/mutator"
	"bookmarkgc/internal/vmm"
)

const (
	soakPhysBytes  = 24 << 20
	soakHeapBytes  = 8 << 20
	soakKeepFrames = 320 // ~1.25 MB stays available: constant eviction pressure
	soakQuantum    = 256 // mutator steps between injector safepoints
)

func soakProgram() mutator.Spec { return mutator.PseudoJBB().Scale(0.04) }

// soakOutcome is everything one soak run measures.
type soakOutcome struct {
	checksum uint64
	gcs      int
	invErr   error
	faults   fault.Stats
	gcStats  gc.Stats
	elapsed  time.Duration

	untrusted bool
	// trustedFullAfterDistrust is set if a full collection after BC
	// stopped trusting notifications was NOT a fail-safe.
	trustedFullAfterDistrust bool
}

// runSoak executes one mutator program under the named fault regime with
// invariants audited after every collection.
func runSoak(t *testing.T, regime string, chaosSeed, workSeed int64) soakOutcome {
	t.Helper()
	clock := vmm.NewClock()
	v := vmm.New(clock, soakPhysBytes, vmm.DefaultCosts())
	env := gc.NewEnv(v, "soak", soakHeapBytes)
	types := mutator.DeclareTypes(env)
	c := core.New(env, core.Config{})
	cfg, ok := fault.ByName(regime, chaosSeed)
	if !ok {
		t.Fatalf("unknown regime %q", regime)
	}
	inj := fault.Interpose(env.Proc, cfg, nil)
	inj.StartSpikes(v)

	var out soakOutcome
	var prevFull, prevFailSafe uint64
	var prevUntrusted bool
	c.OnCollectionEnd(func() {
		out.gcs++
		if err := c.CheckInvariants(); err != nil && out.invErr == nil {
			out.invErr = err
		}
		st := c.Stats()
		if prevUntrusted {
			if df := st.Full - prevFull; df > 0 && st.FailSafe-prevFailSafe != df {
				out.trustedFullAfterDistrust = true
			}
		}
		prevFull, prevFailSafe, prevUntrusted = st.Full, st.FailSafe, c.Untrusted()
	})

	run := mutator.NewRun(soakProgram(), c, types, workSeed)
	if extra := v.FreeFrames() - soakKeepFrames; extra > 0 {
		v.Pin(extra)
	}
	for run.Step(soakQuantum) {
		inj.Safepoint()
	}
	inj.Safepoint()
	mres := run.Finish()
	// One explicit full collection after the program: a run whose chaos
	// discredited the books must route it to the fail-safe, and every
	// regime gets a final full-GC + invariant audit over whatever state
	// the chaos left behind.
	c.Collect(true)

	out.checksum = mres.Checksum
	out.faults = inj.Stats()
	out.gcStats = *c.Stats()
	out.untrusted = c.Untrusted()
	out.elapsed = clock.Now()
	return out
}

// soakKey names one soak run; equal keys are equal runs.
type soakKey struct {
	regime              string
	chaosSeed, workSeed int64
}

// soakMemo holds each key's outcome, computed once however many tests
// ask for it.
var soakMemo sync.Map // soakKey -> *soakOnce

type soakOnce struct {
	once sync.Once
	out  soakOutcome
}

// memoSoak is runSoak computed at most once per key in this process.
func memoSoak(t *testing.T, regime string, chaosSeed, workSeed int64) soakOutcome {
	t.Helper()
	e, _ := soakMemo.LoadOrStore(soakKey{regime, chaosSeed, workSeed}, new(soakOnce))
	s := e.(*soakOnce)
	s.once.Do(func() { s.out = runSoak(t, regime, chaosSeed, workSeed) })
	return s.out
}

// nominalChecksum runs the same program and pressure with no injector.
func nominalChecksum(t *testing.T, workSeed int64) uint64 {
	t.Helper()
	clock := vmm.NewClock()
	v := vmm.New(clock, soakPhysBytes, vmm.DefaultCosts())
	env := gc.NewEnv(v, "nominal", soakHeapBytes)
	types := mutator.DeclareTypes(env)
	c := core.New(env, core.Config{})
	run := mutator.NewRun(soakProgram(), c, types, workSeed)
	if extra := v.FreeFrames() - soakKeepFrames; extra > 0 {
		v.Pin(extra)
	}
	return run.RunToCompletion().Checksum
}

var soakSeeds = []int64{1, 2, 3}

// seeds trims the soak to one seed under -short; the full three-seed
// acceptance matrix runs by default and in CI.
func seeds() []int64 {
	if testing.Short() {
		return soakSeeds[:1]
	}
	return soakSeeds
}

// TestSoakAllRegimes is the acceptance soak: every fault regime, three
// seeds each, invariants after every collection, and the checksum oracle
// against a nominal run. Each regime × seed is its own machine, so they
// run in parallel.
func TestSoakAllRegimes(t *testing.T) {
	base := map[int64]uint64{}
	for _, seed := range seeds() {
		base[seed] = nominalChecksum(t, seed)
	}
	for _, regime := range fault.Regimes() {
		t.Run(regime, func(t *testing.T) {
			t.Parallel()
			for _, seed := range seeds() {
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					t.Parallel()
					out := memoSoak(t, regime, 100+seed, seed)
					if out.invErr != nil {
						t.Fatalf("invariants violated after a collection: %v", out.invErr)
					}
					if out.gcs == 0 {
						t.Fatal("the soak never collected — not a soak")
					}
					if out.checksum != base[seed] {
						t.Fatalf("checksum %#x != nominal %#x — chaos corrupted the heap (faults: %v)",
							out.checksum, base[seed], out.faults)
					}
				})
			}
		})
	}
}

// TestSoakReplayDeterminism re-runs regimes with identical seeds and
// requires bit-identical outcomes: same checksum, same injection counts,
// same number of collections, same simulated clock. The first run of
// each is TestSoakAllRegimes' own, for the same seeds.
func TestSoakReplayDeterminism(t *testing.T) {
	regimes := []string{"drop", "reorder", "no-notify", "thrash"}
	if testing.Short() {
		regimes = regimes[:1]
	}
	const seed = 1
	for _, regime := range regimes {
		t.Run(regime, func(t *testing.T) {
			t.Parallel()
			a := memoSoak(t, regime, 100+seed, seed)
			b := runSoak(t, regime, 100+seed, seed)
			if a.checksum != b.checksum || a.faults != b.faults || a.gcs != b.gcs || a.elapsed != b.elapsed {
				t.Fatalf("replay diverged:\n a: sum=%#x gcs=%d t=%v %v\n b: sum=%#x gcs=%d t=%v %v",
					a.checksum, a.gcs, a.elapsed, a.faults, b.checksum, b.gcs, b.elapsed, b.faults)
			}
		})
	}
}

// TestUncooperativeKernelDegradesToFailSafe checks the degradation
// ladder's last rung: with every notification muted, BC must detect the
// silent evictions, stop trusting the stream, and finish the program on
// fail-safe collections only — no panics, heap intact.
func TestUncooperativeKernelDegradesToFailSafe(t *testing.T) {
	out := runSoak(t, "no-notify", 1, 1)
	if out.invErr != nil {
		t.Fatalf("invariants violated: %v", out.invErr)
	}
	if out.checksum != nominalChecksum(t, 1) {
		t.Fatalf("heap corrupted under an uncooperative kernel")
	}
	if out.gcStats.PagesEvicted != 0 {
		t.Fatalf("BC processed %d pages for eviction despite hearing no notifications", out.gcStats.PagesEvicted)
	}
	if !out.untrusted {
		t.Fatalf("BC still trusts a stream that repaired %d silent evictions (muted %d notifications)",
			out.faults.Muted, out.faults.Muted)
	}
	if out.gcStats.FailSafe == 0 {
		t.Fatal("no fail-safe collections under an uncooperative kernel")
	}
	if out.trustedFullAfterDistrust {
		t.Fatal("a trusted-mode full collection ran after BC stopped trusting notifications")
	}
}
