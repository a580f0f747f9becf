package bench

import (
	"fmt"
	"time"

	"bookmarkgc/internal/runner"
	"bookmarkgc/internal/sim"
)

// fleetVariants are the arbitration regimes the fleet experiment
// compares on an otherwise identical 16-tenant fleet: the
// cooperation-blind kernel baseline, the two static aware policies, and
// the full degradation ladder (blind until the cascade detector trips,
// then escalated to cooperation-aware).
var fleetVariants = []struct {
	label    string
	policy   sim.ArbitrationPolicy
	escalate sim.ArbitrationPolicy
}{
	{"global-lru", sim.PolicyGlobalLRU, ""},
	{"proportional", sim.PolicyProportional, ""},
	{"cooperative", sim.PolicyCooperative, ""},
	{"lru+ladder", sim.PolicyGlobalLRU, sim.PolicyCooperative},
}

// fleetJob builds one fleet job: the stock mixed fleet under the given
// arbitration regime.
func fleetJob(o Options, policy, escalate sim.ArbitrationPolicy) runner.Job {
	spec := sim.DefaultFleetSpec(16, o.Scale, o.Seed, o.Seed+42)
	spec.Policy = policy
	spec.EscalateTo = escalate
	return runner.Job{Fleet: &spec, Seed: o.Seed}
}

// Fleet is the multi-tenant survival experiment: sixteen heterogeneous
// tenants (BC alternating with non-cooperating collectors, two noisy
// neighbors under the thrash chaos regime) share a machine holding 65%
// of their summed heaps, and only the eviction-arbitration regime
// varies. The paper's claim at fleet scale: cooperation-aware
// arbitration shields the bookmarking tenants' major faults and tail
// pauses, at a measurable fairness cost to those who cannot cooperate.
func Fleet(o Options, rn *runner.Runner) []Report {
	var jobs []runner.Job
	for _, v := range fleetVariants {
		jobs = append(jobs, fleetJob(o, v.policy, v.escalate))
	}
	results := rn.RunAll(jobs)

	r := Report{
		ID:    "fleet",
		Title: "16-tenant shared machine: arbitration policy vs fleet survival",
		Header: []string{"arbitration", "agg major", "agg evict", "vetoes",
			"fairness", "BC p99", "other p99", "cascades", "escalated", "failed"},
		Notes: []string{
			"fairness: Jain's index over per-tenant eviction counts (1 = even pressure)",
			"BC/other p99: mean of per-tenant 99th-percentile pauses, by cooperation",
			"lru+ladder: global-lru until the cascade detector trips, then cooperative",
		},
	}
	for i, v := range fleetVariants {
		res := results[i]
		if res.Err != "" || res.Fleet == nil {
			r.Rows = append(r.Rows, []string{v.label, "-", "-", "-", "-", "-", "-", "-", "-", "-"})
			continue
		}
		fd := res.Fleet
		spec := jobs[i].Fleet
		var bcSum, otherSum time.Duration
		var bcN, otherN int
		failed := 0
		for i, rd := range res.Runs {
			if !rd.OK() {
				failed++
			}
			if i >= len(fd.PauseP99NS) || i >= len(spec.Tenants) {
				continue
			}
			p99 := time.Duration(fd.PauseP99NS[i])
			if spec.Tenants[i].Collector == sim.BC {
				bcSum += p99
				bcN++
			} else {
				otherSum += p99
				otherN++
			}
		}
		mean := func(sum time.Duration, n int) string {
			if n == 0 {
				return "-"
			}
			return ms(sum / time.Duration(n))
		}
		r.Rows = append(r.Rows, []string{
			v.label,
			fmt.Sprintf("%d", fd.AggMajorFaults),
			fmt.Sprintf("%d", fd.AggEvictions),
			fmt.Sprintf("%d", fd.ArbiterVetoes),
			fmt.Sprintf("%.3f", fd.Fairness),
			mean(bcSum, bcN),
			mean(otherSum, otherN),
			fmt.Sprintf("%d", fd.Cascades),
			fmt.Sprintf("%v", fd.Escalated),
			fmt.Sprintf("%d", failed),
		})
	}
	return []Report{r}
}
