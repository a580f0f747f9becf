package fault_test

// The heap-limit policy soak (DESIGN.md §14): run BC under eviction-storm
// and mute chaos with each pluggable policy installed, auditing the
// collector's books with CheckInvariants after every collection and
// pinning the policy's limit trajectory across two identical runs.
// The policies only move the heap target — never object state — so the
// mutator checksum oracle and the invariant audit must hold under every
// (policy, regime) pair, and the limit trajectory must be bit-identical
// from run to run.

import (
	"testing"

	"bookmarkgc/internal/core"
	"bookmarkgc/internal/fault"
	"bookmarkgc/internal/gc"
	"bookmarkgc/internal/heappolicy"
	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/mutator"
	"bookmarkgc/internal/vmm"
)

// policyProgram is the policy soak's workload: the acceptance soak's
// pseudoJBB mix at a lighter scale. The policy matrix multiplies every
// run by (policies × regimes), so each run is trimmed to keep the whole
// package inside go test's default timeout; the chaos schedules and
// pressure setup are the acceptance soak's own.
func policyProgram() mutator.Spec { return mutator.PseudoJBB().Scale(0.025) }

// policyNominalChecksum runs policyProgram chaos-free: the oracle every
// (policy, regime) soak's checksum must reproduce.
func policyNominalChecksum(t *testing.T, workSeed int64) uint64 {
	t.Helper()
	clock := vmm.NewClock()
	v := vmm.New(clock, soakPhysBytes, vmm.DefaultCosts())
	env := gc.NewEnv(v, "nominal", soakHeapBytes)
	types := mutator.DeclareTypes(env)
	c := core.New(env, core.Config{})
	run := mutator.NewRun(policyProgram(), c, types, workSeed)
	if extra := v.FreeFrames() - soakKeepFrames; extra > 0 {
		v.Pin(extra)
	}
	return run.RunToCompletion().Checksum
}

// policyOutcome is everything one policy soak run measures.
type policyOutcome struct {
	checksum uint64
	gcs      int
	invErr   error
	faults   fault.Stats
	// limits is the heap-limit trajectory: env.HeapLimitPages() after
	// every collection, in collection order.
	limits []int
}

// runPolicySoak executes the soak program on BC under the named fault
// regime with the named heap policy installed ("" keeps BC's built-in
// bc-shrink default), invariants audited after every collection.
func runPolicySoak(t *testing.T, regime, policy string, chaosSeed, workSeed int64) policyOutcome {
	t.Helper()
	clock := vmm.NewClock()
	v := vmm.New(clock, soakPhysBytes, vmm.DefaultCosts())
	env := gc.NewEnv(v, "policysoak", soakHeapBytes)
	if policy != "" {
		pol, err := heappolicy.New(policy, heappolicy.Options{})
		if err != nil {
			t.Fatalf("heappolicy.New(%q): %v", policy, err)
		}
		env.HeapPolicy = pol
	}
	types := mutator.DeclareTypes(env)
	c := core.New(env, core.Config{})
	cfg, ok := fault.ByName(regime, chaosSeed)
	if !ok {
		t.Fatalf("unknown regime %q", regime)
	}
	inj := fault.Interpose(env.Proc, cfg, nil)
	inj.StartSpikes(v)

	var out policyOutcome
	c.OnCollectionEnd(func() {
		out.gcs++
		if err := c.CheckInvariants(); err != nil && out.invErr == nil {
			out.invErr = err
		}
		out.limits = append(out.limits, env.HeapLimitPages())
	})

	run := mutator.NewRun(policyProgram(), c, types, workSeed)
	if extra := v.FreeFrames() - soakKeepFrames; extra > 0 {
		v.Pin(extra)
	}
	for run.Step(soakQuantum) {
		inj.Safepoint()
	}
	inj.Safepoint()
	mres := run.Finish()
	c.Collect(true)

	out.checksum = mres.Checksum
	out.faults = inj.Stats()
	return out
}

// policyRegimes are the required chaos schedules: an eviction storm
// (reload-storm), sustained thrash, and the mute regime (no-notify)
// where pressure-sensitive policies hear nothing. -short trims to the
// storm alone, like the acceptance soak's seed matrix.
func policyRegimes() []string {
	all := []string{"reload-storm", "thrash", "no-notify"}
	if testing.Short() {
		return all[:1]
	}
	return all
}

// TestPolicySoakAllRegimes drives every heap-limit policy through the
// eviction-storm and mute regimes: invariants must hold after every
// collection and the checksum oracle must match a chaos-free nominal
// run — a policy may move the heap target, never corrupt the heap.
func TestPolicySoakAllRegimes(t *testing.T) {
	const workSeed = 1
	base := policyNominalChecksum(t, workSeed)
	// Every run builds its own clock/VMM/env (concurrent instances are
	// the runner's normal mode), so the matrix runs as parallel
	// subtests — required to keep the package inside the default
	// go test timeout on top of the acceptance soak.
	for _, policy := range heappolicy.Names() {
		for _, regime := range policyRegimes() {
			t.Run(policy+"/"+regime, func(t *testing.T) {
				t.Parallel()
				out := runPolicySoak(t, regime, policy, 100+workSeed, workSeed)
				if out.invErr != nil {
					t.Fatalf("%s: invariants violated after a collection: %v", regime, out.invErr)
				}
				if out.gcs == 0 {
					t.Fatalf("%s: the soak never collected — not a soak", regime)
				}
				if out.checksum != base {
					t.Fatalf("%s: checksum %#x != nominal %#x — policy+chaos corrupted the heap (faults: %v)",
						regime, out.checksum, base, out.faults)
				}
			})
		}
	}
}

// TestPolicyShrinksUnderStormRegrowsWhenMuted spot-checks that the soak
// actually exercises the control loops: under the eviction storm the
// pressure-sensitive policies must shrink the limit below the
// configured heap at least once, while fixed must never move.
func TestPolicyShrinksUnderStormRegrowsWhenMuted(t *testing.T) {
	heapPages := int(soakHeapBytes / mem.PageSize)
	shrunk := func(limits []int) bool {
		for _, l := range limits {
			if l < heapPages {
				return true
			}
		}
		return false
	}
	for _, policy := range []string{"bc-shrink", "composed"} {
		t.Run(policy, func(t *testing.T) {
			t.Parallel()
			out := runPolicySoak(t, "reload-storm", policy, 101, 1)
			if !shrunk(out.limits) {
				t.Errorf("%s never shrank below %d pages under the eviction storm: %v",
					policy, heapPages, out.limits)
			}
		})
	}
	t.Run("fixed", func(t *testing.T) {
		t.Parallel()
		out := runPolicySoak(t, "reload-storm", "fixed", 101, 1)
		if shrunk(out.limits) {
			t.Errorf("fixed moved the limit under chaos: %v", out.limits)
		}
	})
}

// TestPolicyLimitTrajectoryDeterministic is the determinism gate: the
// policy's limit trajectory — the heap target after every single
// collection — must be bit-identical across two identical runs under
// chaos, for every policy.
func TestPolicyLimitTrajectoryDeterministic(t *testing.T) {
	policies := heappolicy.Names()
	if testing.Short() {
		policies = []string{"membalancer"}
	}
	for _, policy := range policies {
		t.Run(policy, func(t *testing.T) {
			t.Parallel()
			a := runPolicySoak(t, "thrash", policy, 42, 7)
			b := runPolicySoak(t, "thrash", policy, 42, 7)
			if a.checksum != b.checksum || a.gcs != b.gcs || a.faults != b.faults {
				t.Fatalf("runs diverge: a(sum=%#x gcs=%d %v) b(sum=%#x gcs=%d %v)",
					a.checksum, a.gcs, a.faults, b.checksum, b.gcs, b.faults)
			}
			if len(a.limits) != len(b.limits) {
				t.Fatalf("trajectory lengths diverge: %d vs %d", len(a.limits), len(b.limits))
			}
			for i := range a.limits {
				if a.limits[i] != b.limits[i] {
					t.Fatalf("limit trajectory diverges at collection %d: %d vs %d\nfirst run: %v\nsecond run: %v",
						i, a.limits[i], b.limits[i], a.limits, b.limits)
				}
			}
		})
	}
}
