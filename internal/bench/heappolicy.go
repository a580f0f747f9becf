package bench

import (
	"fmt"
	"time"

	"bookmarkgc/internal/mutator"
	"bookmarkgc/internal/runner"
	"bookmarkgc/internal/sim"
)

// hpPolicies are the four heap-limit regimes the Pareto experiment
// sweeps (internal/heappolicy), in documentation order.
var hpPolicies = []string{"fixed", "bc-shrink", "membalancer", "composed"}

// hpHeapsMB is the swept heap axis in MB: the fig3 range thinned to
// four points, enough to draw a memory-vs-GC-time frontier per policy.
var hpHeapsMB = []int{70, 85, 100, 115}

// hpAvailFrac is the steady squeeze: available memory holds 70% of the
// heap, so pressure-reactive policies (bc-shrink, composed) engage
// while the run stays far from thrashing collapse.
const hpAvailFrac = 0.70

// hpJob is one single-tenant Pareto point: Figure 3's GenMS job at
// hpAvailFrac, with only the heap-limit policy and heap size varying.
// GenMS has no native policy, so "fixed" is the true status quo;
// pressure reaches bc-shrink/composed through the policy relay.
func hpJob(o Options, pol string, prog mutator.Spec, heapMB int) runner.Job {
	j := fig3Job(o, sim.GenMS, prog, heapMB, hpAvailFrac)
	j.HeapPolicy = pol
	return j
}

// hpFleetJob is one 16-tenant fleet with every tenant under the given
// heap-limit policy and the fleet MemBalancer redistributing the
// machine every 25 ms of simulated time. Arbitration is pinned to
// global-lru so only the heap-policy axis varies.
func hpFleetJob(o Options, pol string) runner.Job {
	spec := sim.DefaultFleetSpec(16, o.Scale, o.Seed, o.Seed+42)
	spec.Policy = sim.PolicyGlobalLRU
	spec.HeapPolicy = pol
	spec.BalanceEveryNS = int64(25 * time.Millisecond)
	return runner.Job{Fleet: &spec, Seed: o.Seed}
}

// hpPoint is one (memory, GC time) Pareto coordinate.
type hpPoint struct {
	resident uint64
	gcTime   time.Duration
}

// dominates reports whether a beats b on the Pareto frontier: no worse
// on both axes, strictly better on at least one.
func (a hpPoint) dominates(b hpPoint) bool {
	if a.resident > b.resident || a.gcTime > b.gcTime {
		return false
	}
	return a.resident < b.resident || a.gcTime < b.gcTime
}

// HeapPolicy is the heap-limit policy Pareto experiment: the same
// workload and machine, with only the policy deciding how much of the
// configured heap the collector may actually use. Report 1 sweeps a
// single tenant across four heap sizes per policy — each policy traces
// a total-memory × total-GC-time curve. Report 2 runs the 16-tenant
// mixed fleet under each policy with the fleet MemBalancer armed. The
// MemBalancer claim: the square-root rule gives back memory the
// workload cannot convert into useful GC savings, so its curve should
// dominate the fixed budget's somewhere on the frontier.
func HeapPolicy(o Options, rn *runner.Runner) []Report {
	prog := mutator.PseudoJBB().Scale(o.Scale)
	var jobs []runner.Job
	for _, pol := range hpPolicies {
		for _, heapMB := range hpHeapsMB {
			jobs = append(jobs, hpJob(o, pol, prog, heapMB))
		}
		jobs = append(jobs, hpFleetJob(o, pol))
	}
	// One row per policy: its single-tenant points, then its fleet.
	rows := chunk(rn.RunAll(jobs), len(hpHeapsMB)+1)

	single := Report{
		ID:    "heappolicy",
		Title: fmt.Sprintf("heap-limit policy Pareto: GenMS/pseudoJBB, steady pressure (%.0f%% of heap available)", hpAvailFrac*100),
		Header: []string{"policy", "heap", "peak resident",
			"GC time", "GCs", "majflt", "exec"},
		Notes: []string{
			"peak resident: high-water resident pages — the memory axis",
			"GC time: summed stop-the-world pause time — the time axis",
		},
	}
	points := map[string][]hpPoint{}
	for pi, pol := range hpPolicies {
		for hi, heapMB := range hpHeapsMB {
			res := rows[pi][hi]
			if !res.OK() {
				single.Rows = append(single.Rows, []string{pol,
					fmt.Sprintf("%dMB", heapMB), "-", "-", "-", "-", "-"})
				continue
			}
			rd := res.One()
			tl := rd.Timeline()
			p := hpPoint{resident: rd.Proc.PeakResident, gcTime: tl.TotalPause()}
			points[pol] = append(points[pol], p)
			single.Rows = append(single.Rows, []string{
				pol,
				fmt.Sprintf("%dMB", heapMB),
				fmt.Sprintf("%dpg", p.resident),
				ms(p.gcTime),
				fmt.Sprintf("%d", rd.Nursery+rd.Full),
				fmt.Sprintf("%d", rd.Proc.MajorFaults),
				secs(rd.ElapsedSecs),
			})
		}
	}
	dominated := 0
	for _, fx := range points["fixed"] {
		for _, mb := range points["membalancer"] {
			if mb.dominates(fx) {
				dominated++
				break
			}
		}
	}
	single.Notes = append(single.Notes, fmt.Sprintf(
		"membalancer dominates fixed at %d of %d frontier points",
		dominated, len(points["fixed"])))

	fleet := Report{
		ID:    "heappolicyfleet",
		Title: "16-tenant fleet under each heap-limit policy, fleet MemBalancer every 25ms",
		Header: []string{"policy", "agg peak resident", "GC time", "agg majflt",
			"agg evict", "balancer rounds", "fairness", "failed"},
		Notes: []string{
			"agg peak resident: summed per-tenant high-water resident pages",
			"GC time: summed pause time across all sixteen tenants",
		},
	}
	fleetPts := map[string]hpPoint{}
	for pi, pol := range hpPolicies {
		res := rows[pi][len(hpHeapsMB)]
		if res.Err != "" || res.Fleet == nil {
			fleet.Rows = append(fleet.Rows, []string{pol, "-", "-", "-", "-", "-", "-", "-"})
			continue
		}
		fd := res.Fleet
		var gcTime time.Duration
		failed := 0
		for _, rd := range res.Runs {
			if !rd.OK() {
				failed++
			}
			tl := rd.Timeline()
			gcTime += tl.TotalPause()
		}
		fleetPts[pol] = hpPoint{resident: fd.AggPeakResident, gcTime: gcTime}
		fleet.Rows = append(fleet.Rows, []string{
			pol,
			fmt.Sprintf("%dpg", fd.AggPeakResident),
			ms(gcTime),
			fmt.Sprintf("%d", fd.AggMajorFaults),
			fmt.Sprintf("%d", fd.AggEvictions),
			fmt.Sprintf("%d", fd.BalancerRounds),
			fmt.Sprintf("%.3f", fd.Fairness),
			fmt.Sprintf("%d", failed),
		})
	}
	if fx, okF := fleetPts["fixed"]; okF {
		if mb, okM := fleetPts["membalancer"]; okM {
			verdict := "does NOT lower"
			if mb.resident < fx.resident && mb.gcTime <= fx.gcTime {
				verdict = "lowers"
			}
			fleet.Notes = append(fleet.Notes, fmt.Sprintf(
				"fleet membalancer %s aggregate peak residency vs fixed at equal-or-better GC time (%dpg/%s vs %dpg/%s)",
				verdict, mb.resident, ms(mb.gcTime), fx.resident, ms(fx.gcTime)))
		}
	}
	return []Report{single, fleet}
}
