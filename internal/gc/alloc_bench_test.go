package gc_test

import (
	"testing"

	"bookmarkgc/internal/gc"
	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/sim"
	"bookmarkgc/internal/vmm"
)

// BenchmarkCollectorAlloc times the allocation path of every collector
// through gc.Collector, in steady state: small objects replace the
// slots of a ring of roots, so each collection finds a bounded live set,
// and one allocation in 256 is an array past the largest size class,
// which takes the large-object path. The collections the allocations
// trigger are part of the cost; building and releasing the collector
// are not.
func BenchmarkCollectorAlloc(b *testing.B) {
	for _, kind := range sim.AllKinds {
		b.Run(string(kind), func(b *testing.B) {
			env := gc.NewEnv(vmm.New(vmm.NewClock(), 64<<20, vmm.DefaultCosts()), "bench", 8<<20)
			env.MarkWorkers = 1
			col, err := sim.NewCollector(kind, env)
			if err != nil {
				b.Fatal(err)
			}
			node := env.Types.Scalar("node", 4, 0, 1)
			big := env.Types.Array("big", false)
			bigLen := env.Classes.LargestBlock() / mem.WordSize
			ring := make([]int, 1024)
			for i := range ring {
				ring[i] = col.Roots().Add(mem.Nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o := mem.Nil
				if i%256 == 255 {
					o = col.Alloc(big, bigLen)
				} else {
					o = col.Alloc(node, 0)
				}
				col.Roots().Set(ring[i%len(ring)], o)
			}
			b.StopTimer()
			env.ReleaseScratch(col.Roots())
			env.Proc.Space().Release()
		})
	}
}
