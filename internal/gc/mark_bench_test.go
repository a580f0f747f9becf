package gc

import (
	"math/rand"
	"testing"

	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/objmodel"
)

// benchGraph builds a connected random object graph for mark benchmarks.
func benchGraph(b *testing.B, env *Env, n int) (root objmodel.Ref) {
	b.Helper()
	m := NewMature(&Base{E: env})
	node := env.Types.Scalar("bnode", 8, 0, 1)
	rng := rand.New(rand.NewSource(42))
	objs := make([]objmodel.Ref, 0, n)
	for i := 0; i < n; i++ {
		o := m.AllocMature(node, 0, env.HeapPages, 0)
		if o == mem.Nil {
			b.Fatal("benchGraph: out of space")
		}
		objmodel.ClearStatus(env.Space, o)
		objmodel.SetTypeWord(env.Space, o, node.ID, 0)
		objs = append(objs, o)
		if i > 0 {
			prev := objs[rng.Intn(i)]
			slot := rng.Intn(2)
			env.Space.WriteAddr(node.RefSlotAddr(prev, slot), o)
		}
	}
	return objs[0]
}

// BenchmarkMarkLoop measures the sequential handle-based mark loop
// (MarkStep status-word batching + WorkList) over a 4k-object graph.
func BenchmarkMarkLoop(b *testing.B) {
	env := testEnv(b)
	root := benchGraph(b, env, 4096)
	work := env.GetWorkList()
	defer env.PutWorkList(work)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		epoch := uint32(i%int(objmodel.MaxEpoch-1) + 1)
		MarkStep(env, work, root, epoch)
		MarkTrace(env, work, epoch, nil)
	}
}

// BenchmarkDequeHandles measures the Chase-Lev deque's owner-side
// push/pop with the 32-bit handle encoding.
func BenchmarkDequeHandles(b *testing.B) {
	d := NewDeque()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Push(objmodel.Ref(uint64(i%4096+1) * mem.WordSize))
		if i%2 == 1 {
			d.Pop()
			d.Pop()
		}
	}
}
