package gc_test

import (
	"runtime"
	"testing"

	"bookmarkgc/internal/gc"
	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/sim"
	"bookmarkgc/internal/vmm"
)

// TestWarmEvacuationAllocatesNothing: an evacuation that follows one as
// large in another environment traces on the stack that one grew, even
// when a smaller stack was retired after it, so its pushes allocate
// nothing. The bound, half the words of a stack that holds the
// evacuation, leaves room for what other goroutines of the process
// allocate meanwhile (the page-body finalizers of earlier tests'
// spaces).
func TestWarmEvacuationAllocatesNothing(t *testing.T) {
	defer gc.PutWorkLists(gc.TakeWorkLists())
	const large, small = 4096, 8
	type genMS struct {
		env *gc.Env
		col gc.Collector
	}
	newGenMS := func() genMS {
		env := gc.NewEnv(vmm.New(vmm.NewClock(), 64<<20, vmm.DefaultCosts()), "worklist", 8<<20)
		col, err := sim.NewCollector(sim.GenMS, env)
		if err != nil {
			t.Fatal(err)
		}
		return genMS{env, col}
	}
	// root allocates n rooted nodes in the nursery, which holds them all.
	root := func(g genMS, n int) {
		node := g.env.Types.Scalar("node", 4, 0, 1)
		nurseries := g.col.Stats().Nursery
		for range n {
			g.col.Roots().Add(g.col.Alloc(node, 0))
		}
		if g.col.Stats().Nursery != nurseries {
			t.Fatalf("%d nodes do not fit the nursery", n)
		}
	}
	release := func(g genMS) {
		g.env.ReleaseScratch(g.col.Roots())
		g.env.Proc.Space().Release()
	}
	big := newGenMS()
	root(big, large)
	big.col.Collect(false)
	release(big)
	// The stack of an environment that never traced much, retired last.
	gc.PutWorkLists([]*gc.WorkList{new(gc.WorkList)})

	warm := newGenMS()
	defer release(warm)
	root(warm, small)
	warm.col.Collect(false)
	root(warm, large)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	warm.col.Collect(false)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > large*mem.WordSize/2 {
		t.Errorf("a %d-object evacuation after one as large allocated %d bytes", large, got)
	}
}
