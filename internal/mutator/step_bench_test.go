package mutator

import (
	"testing"

	"bookmarkgc/internal/collectors"
	"bookmarkgc/internal/gc"
	"bookmarkgc/internal/vmm"
)

// BenchmarkMutatorStep times the generator where the repository
// benchmark's nopressure workload runs it: pseudoJBB at scale 0.04 under
// GenMS with four heaps' worth of memory, one op per allocation iteration
// (one or two allocations, WorkPerAlloc work items, a link every
// LinkEvery). Collections the program triggers are part of the cost;
// building the machine and the initial live set is not. Each machine is
// released when its program ends, as the run engine releases a finished
// run's, so the next starts on recycled page bodies and scratch.
func BenchmarkMutatorStep(b *testing.B) {
	spec := PseudoJBB().Scale(0.04)
	heap := uint64(77<<20) * 4 / 100
	b.ReportAllocs()
	for done := 0; done < b.N; {
		b.StopTimer()
		v := vmm.New(vmm.NewClock(), heap*4, vmm.DefaultCosts())
		env := gc.NewEnv(v, "bench", heap)
		col := collectors.NewGenMS(env)
		run := NewRun(spec, col, DeclareTypes(env), 1)
		run.Step(1) // the initial live set and the first iteration
		b.StartTimer()
		for q := min(64, b.N-done); q > 0 && run.Step(q); q = min(64, b.N-done) {
			done += q
		}
		b.StopTimer()
		env.ReleaseScratch(col.Roots())
		env.Proc.Space().Release()
	}
}
