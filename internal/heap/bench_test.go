package heap

import (
	"testing"

	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/objmodel"
	"bookmarkgc/internal/vmm"
)

// benchSuperSpace returns a mature space on a clock-wired machine with
// ample memory — the space every run allocates on, where the batched
// access paths apply — and a scalar type of payloadWords words.
func benchSuperSpace(payloadWords int) (*SuperSpace, *objmodel.Type, objmodel.SizeClass) {
	const end = 64 * mem.SuperSize
	p := vmm.New(vmm.NewClock(), 4*end, vmm.DefaultCosts()).NewProc("bench", end)
	t := objmodel.NewTable().Scalar("obj", payloadWords)
	cl, _ := classes.ForSize(t.TotalBytes(0))
	return NewSuperSpace(p.Space(), classes, mem.SuperSize, end), t, cl
}

// BenchmarkSuperSpaceAlloc fills a superpage block by block, frees it
// whole and starts over: one op is one object, the bitmap scan behind it
// averaging half the superpage. The smallest class has the most blocks
// (992); node is the 48-byte class the workloads allocate most.
func BenchmarkSuperSpaceAlloc(b *testing.B) {
	for _, bc := range []struct {
		name         string
		payloadWords int
	}{{"smallest", 0}, {"node", 4}} {
		b.Run(bc.name, func(b *testing.B) {
			ss, t, cl := benchSuperSpace(bc.payloadWords)
			idx := ss.AcquireSuper(cl, t.Kind)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ss.Alloc(t, 0, cl) != mem.Nil {
					continue
				}
				// Nothing is marked: the sweep frees every block and
				// releases the superpage.
				if _, empty := ss.SweepSuper(idx, 1); !empty {
					b.Fatal("sweeping an unmarked superpage left it in use")
				}
				idx = ss.AcquireSuper(cl, t.Kind)
				ss.Alloc(t, 0, cl)
			}
		})
	}
}

// TestSweepAndWalkDoNotAllocate: the sweep runs once per superpage per
// collection and the range walker once per page on every eviction,
// reload and card scan; both must stay off the Go heap.
func TestSweepAndWalkDoNotAllocate(t *testing.T) {
	ss, typ, cl := benchSuperSpace(4)
	idx := ss.AcquireSuper(cl, typ.Kind)
	base := ss.SuperBase(idx)
	n := 0
	walk := func() {
		ss.ObjectsOverlapping(idx, base, base+mem.SuperSize, func(objmodel.Ref) { n++ })
	}
	epoch := uint32(0)
	sweepHalf := func() {
		for ss.Alloc(typ, 0, cl) != mem.Nil {
		}
		epoch++
		k := 0
		ss.ForEachObjectIn(idx, func(o objmodel.Ref) {
			if k++; k%2 != 0 {
				objmodel.SetMark(ss.s, o, epoch)
			}
		})
		if freed, _ := ss.SweepSuper(idx, epoch); freed != cl.Blocks/2 {
			t.Fatalf("sweep freed %d blocks, want %d", freed, cl.Blocks/2)
		}
	}
	if a := testing.AllocsPerRun(50, sweepHalf); a != 0 {
		t.Errorf("SweepSuper: %v allocs per sweep, want 0", a)
	}
	if a := testing.AllocsPerRun(50, walk); a != 0 {
		t.Errorf("ObjectsOverlapping: %v allocs per walk, want 0", a)
	}
	if n == 0 {
		t.Fatal("the walk visited nothing")
	}
}

// BenchmarkSweepSuper sweeps one full superpage of nodes: live with
// every object marked (the scan alone), half with every other object
// dead (the blocks are allocated again off the clock).
func BenchmarkSweepSuper(b *testing.B) {
	for _, bc := range []struct {
		name string
		half bool
	}{{"live", false}, {"half", true}} {
		b.Run(bc.name, func(b *testing.B) {
			ss, t, cl := benchSuperSpace(4)
			idx := ss.AcquireSuper(cl, t.Kind)
			want := 0
			if bc.half {
				want = cl.Blocks / 2
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				epoch := uint32(1 + i%2)
				for ss.Alloc(t, 0, cl) != mem.Nil {
				}
				k := 0
				ss.ForEachObjectIn(idx, func(o objmodel.Ref) {
					if k++; !bc.half || k%2 != 0 {
						objmodel.SetMark(ss.s, o, epoch)
					}
				})
				b.StartTimer()
				if freed, _ := ss.SweepSuper(idx, epoch); freed != want {
					b.Fatalf("sweep freed %d blocks, want %d", freed, want)
				}
			}
		})
	}
}
