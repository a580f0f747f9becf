package gc

import (
	"fmt"
	"math/rand"
	"testing"

	"bookmarkgc/internal/objmodel"
)

// benchGraph builds a binary tree of n objects scattered over the heap
// (allocation order shuffled, so an edge rarely stays on its page) and
// returns the root.
func benchGraph(b *testing.B, env *Env, n int) (root objmodel.Ref) {
	b.Helper()
	m := NewMature(&Base{E: env})
	node := env.Types.Scalar("bnode", 8, 0, 1)
	objs := allocNodes(b, &m, node, 0, n)
	rand.New(rand.NewSource(42)).Shuffle(n, func(i, j int) { objs[i], objs[j] = objs[j], objs[i] })
	for i := 1; i < n; i++ {
		env.Space.WriteAddr(node.RefSlotAddr(objs[(i-1)/2], (i-1)%2), objs[i])
	}
	return objs[0]
}

// BenchmarkMarkLoop measures the engine every full collection runs,
// ParMarker.Mark, over a 4k-object graph: at one worker (a plain loop
// that must not allocate) and at two (fork-join deals).
func BenchmarkMarkLoop(b *testing.B) {
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			env := testEnv(b)
			root := benchGraph(b, env, 4096)
			work := env.GetWorkList()
			defer env.PutWorkList(work)
			marker := NewParMarker(env, workers)
			cfg := &ParMarkConfig{}
			mark := func() {
				cfg.Epoch = cfg.Epoch%(objmodel.MaxEpoch-1) + 1
				MarkStep(env, work, root, cfg.Epoch)
				marker.Mark(cfg, work, nil)
			}
			mark() // grow the stacks and tallies once
			if workers == 1 {
				if a := testing.AllocsPerRun(3, mark); a != 0 {
					b.Fatalf("one-worker Mark allocates %v times per call", a)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mark()
			}
		})
	}
}
