// Multijvm runs two simulated JVMs on one machine (§5.3.3 / Figure 7):
// both run pseudoJBB with equal heaps while sharing physical memory that
// cannot hold them both. With a VM-oblivious collector, paging
// effectively serializes the two instances; the bookmarking collector
// keeps both responsive.
//
// Two JVMs on one machine are a fleet of two identical tenants run by
// RunFleet with no arbitration policy, so the arbiter, cascade detector
// and fleet telemetry stay uninstalled — this example's output is
// byte-identical to what it printed before the fleet engine existed,
// and golden.txt pins that.
package main

import (
	"fmt"
	"time"

	"bookmarkgc"
)

func main() {
	scale := 0.1
	heap := uint64(77 * scale * (1 << 20))
	prog := bookmarkgc.PseudoJBB().Scale(scale)

	for _, phys := range []uint64{uint64(2.4 * float64(heap)), uint64(1.2 * float64(heap))} {
		fmt.Printf("machine RAM = %.1f MB for two %d MB heaps\n",
			float64(phys)/(1<<20), heap>>20)
		for _, kind := range []bookmarkgc.CollectorKind{bookmarkgc.BC, bookmarkgc.CopyMS} {
			jvm := bookmarkgc.TenantSpec{Collector: kind, Program: prog, HeapBytes: heap}
			fr := bookmarkgc.RunFleet(bookmarkgc.FleetConfig{Spec: bookmarkgc.FleetSpec{
				Tenants:   []bookmarkgc.TenantSpec{jvm, jvm},
				PhysBytes: phys,
				Seed:      7,
			}})
			var worst float64
			var pauses int
			var pauseSum time.Duration
			for _, r := range fr.Tenants {
				if r.ElapsedSecs > worst {
					worst = r.ElapsedSecs
				}
				pauses += r.Timeline.Count()
				pauseSum += r.Timeline.TotalPause()
			}
			avg := time.Duration(0)
			if pauses > 0 {
				avg = pauseSum / time.Duration(pauses)
			}
			fmt.Printf("  %-7s total elapsed=%8.3fs  mean pause=%v (both instances)\n",
				kind, worst, avg)
		}
		fmt.Println()
	}
}
