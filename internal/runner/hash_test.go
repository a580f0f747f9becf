package runner

import (
	"testing"

	"bookmarkgc/internal/fault"
	"bookmarkgc/internal/mutator"
	"bookmarkgc/internal/sim"
)

// TestJobHashPinned holds Job.Hash to values computed at the commit
// before Job lost its never-set Costs field (PR 23). A persisted result
// cache is keyed by these hashes, so an edit to Job, to a struct it
// embeds, or to the registries these jobs are built from that moves one
// of them orphans every stored result: do that on purpose or not at all.
// The jvms2 row was re-pinned when several JVMs on one machine became a
// fleet of identical tenants; its old single-run form no longer exists.
// The fleet row was re-pinned when the fleet spec lost the cascade
// window and sustain, backpressure and admission-throttle keys that
// DefaultFleetSpec used to write; the fleet it runs did not change.
func TestJobHashPinned(t *testing.T) {
	prog, _ := mutator.ByName("pseudojbb")
	prog = prog.Scale(0.03)
	chaos, _ := fault.ByName("thrash", 5)
	fleet := sim.DefaultFleetSpec(4, 0.03, 1, 5)
	fleet.Policy = "cooperative"
	jvm := sim.TenantSpec{Collector: sim.GenMS, Program: prog, HeapBytes: 45 << 20}
	for _, tc := range []struct {
		name string
		job  Job
		want string
	}{
		{"single", Job{
			Collector: sim.BC, Program: prog,
			HeapBytes: 40 << 20, PhysBytes: 60 << 20,
			Pressure: sim.SteadyPressure(60<<20, 0.8), Seed: 1,
			Chaos:    &chaos,
			Counters: true, HeapPolicy: "membalancer",
		}, "b60ca3243710720e75f7060ac1913eb6e728d3312e17d837c44557c1d6b1dfe3"},
		{"jvms2", Job{Fleet: &sim.FleetSpec{
			Tenants:   []sim.TenantSpec{jvm, jvm},
			PhysBytes: 100 << 20, Quantum: 64, Seed: 7,
		}}, "a74c1be22e35d1588dc9471e7d631889771187b436438cf4c36dfa1aa9afd0cc"},
		{"fleet", Job{Fleet: &fleet},
			"c8d1768a036a1503a397f20c498f108fbe3efe90a04cbe4e43fff3bef637c967"},
	} {
		if err := tc.job.Validate(); err != nil {
			t.Errorf("%s: the pinned job is not a valid one: %v", tc.name, err)
		}
		if got := tc.job.Hash(); got != tc.want {
			t.Errorf("%s: Job.Hash() = %s, pinned %s", tc.name, got, tc.want)
		}
	}
}
