package workload_test

import (
	"bytes"
	"testing"

	"bookmarkgc/internal/collectors"
	"bookmarkgc/internal/gc"
	"bookmarkgc/internal/mutator"
	"bookmarkgc/internal/vmm"
	"bookmarkgc/internal/workload"
)

// BenchmarkReplayStep replays the stream mutator's BenchmarkMutatorStep
// generates — pseudoJBB at scale 0.04, seed 1, GenMS with ample memory —
// one op per allocation iteration, so the two numbers say what a replayed
// event costs against a generated one (whether "generate once, replay
// many" could pay; ROADMAP parks "a replayer at generator speed").
// Decoding the trace is part of a replayed step; recording it, building
// the machine and the initial live set are not. Each machine is released
// when its replay ends, as in BenchmarkMutatorStep.
func BenchmarkReplayStep(b *testing.B) {
	raw := recordPseudoJBB(b, 0.04, 1)
	rd, err := workload.NewReader(bytes.NewReader(raw))
	if err != nil {
		b.Fatal(err)
	}
	st, err := workload.Verify(rd)
	if err != nil {
		b.Fatal(err)
	}
	heap := uint64(77<<20) * 4 / 100
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		b.StopTimer()
		v := vmm.New(vmm.NewClock(), heap*4, vmm.DefaultCosts())
		env := gc.NewEnv(v, "bench", heap)
		rd, err := workload.NewReader(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		col := collectors.NewGenMS(env)
		rp := workload.NewReplayer(rd, col, mutator.DeclareTypes(env))
		rp.Step(1) // the initial live set and the first iteration
		b.StartTimer()
		for q := min(64, b.N-done); q > 0 && rp.Step(q); q = min(64, b.N-done) {
			done += q
		}
		if err := rp.Err(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		env.ReleaseScratch(col.Roots())
		env.Proc.Space().Release()
	}
	b.ReportMetric(float64(st.Events)/float64(st.Steps), "events/op")
}
