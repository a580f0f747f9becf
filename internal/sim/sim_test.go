package sim

import (
	"math"
	"strings"
	"testing"
	"time"

	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/mutator"
	"bookmarkgc/internal/trace"
	"bookmarkgc/internal/vmm"
)

// tinyJBB is a scaled-down pseudoJBB for fast tests.
func tinyJBB() mutator.Spec { return mutator.PseudoJBB().Scale(0.02) }

func TestRunEveryCollector(t *testing.T) {
	for _, kind := range append([]CollectorKind{BCResizeOnly, GenMSFixed, GenCopyFixed}, AllKinds...) {
		t.Run(string(kind), func(t *testing.T) {
			res := Run(RunConfig{
				Collector: kind,
				Program:   tinyJBB(),
				HeapBytes: 4 << 20,
				PhysBytes: 256 << 20,
				Seed:      1,
			})
			if res.Mutator.AllocatedBytes < tinyJBB().TotalAlloc {
				t.Fatalf("under-allocated: %d", res.Mutator.AllocatedBytes)
			}
			if res.ElapsedSecs <= 0 {
				t.Fatal("no simulated time elapsed")
			}
			if res.Timeline.Count() == 0 {
				t.Fatal("no collections")
			}
		})
	}
}

// TestEveryKindWiresItsCounters guards the shared constructors: every
// bump space, large object space and promotion a collector owns must
// feed the run's counter registry, whichever collector built it.
func TestEveryKindWiresItsCounters(t *testing.T) {
	prog := tinyJBB()
	if prog.LargeEvery == 0 {
		t.Fatal("the program must allocate large objects")
	}
	for _, kind := range KnownKinds {
		reg := trace.NewCounters()
		res := Run(RunConfig{Collector: kind, Program: prog, HeapBytes: 4 << 20, PhysBytes: 256 << 20, Seed: 1, Counters: reg})
		if res.Err != nil || res.Timeline.Count() == 0 {
			t.Fatalf("%s: err %v, %d collections", kind, res.Err, res.Timeline.Count())
		}
		for _, c := range []struct {
			id      trace.Counter
			applies bool
		}{
			{trace.CBumpAllocs, kind != MarkSweep},                         // every kind with a bump space
			{trace.CPromotedBytes, kind != MarkSweep && kind != SemiSpace}, // every kind that promotes
			{trace.CLOSAllocs, true},
		} {
			if c.applies && reg.Get(c.id) == 0 {
				t.Errorf("%s: %s stayed 0 over %d collections", kind, c.id, res.Timeline.Count())
			}
		}
	}
}

func TestPressureDegradesObliviousCollector(t *testing.T) {
	// Under steady pressure, GenMS must run slower and fault more than
	// without pressure — the paper's core phenomenon.
	prog := tinyJBB()
	heap := uint64(8 << 20)
	base := Run(RunConfig{
		Collector: GenMS, Program: prog, HeapBytes: heap,
		PhysBytes: 64 << 20, Seed: 1,
	})
	// Pin down to ~40% of the heap remaining for the whole machine.
	squeezed := Run(RunConfig{
		Collector: GenMS, Program: prog, HeapBytes: heap,
		PhysBytes: 64 << 20, Seed: 1,
		Pressure: &Pressure{InitialBytes: 64<<20 - heap*4/10},
	})
	if squeezed.ProcStats.MajorFaults == 0 {
		t.Fatal("pressure produced no major faults for GenMS")
	}
	if squeezed.ElapsedSecs <= base.ElapsedSecs {
		t.Fatalf("pressure did not slow GenMS: %.3fs vs %.3fs",
			squeezed.ElapsedSecs, base.ElapsedSecs)
	}
}

func TestBCBeatsGenMSUnderPressure(t *testing.T) {
	// The headline claim, at miniature scale: under Figure 3's steady
	// pressure (signalmem removes 60% of the heap; the machine is sized
	// so the heap barely fits beforehand), BC finishes several times
	// faster than GenMS and takes fewer GC-time major faults.
	prog := mutator.PseudoJBB().Scale(0.04)
	heap := mem.RoundUpPage(77 * (1 << 20) * 4 / 100)
	phys := mem.RoundUpPage(100 * (1 << 20) * 4 / 100)
	press := SteadyPressure(heap, 0.6)
	bc := Run(RunConfig{Collector: BC, Program: prog, HeapBytes: heap,
		PhysBytes: phys, Seed: 1, Pressure: press})
	gen := Run(RunConfig{Collector: GenMS, Program: prog, HeapBytes: heap,
		PhysBytes: phys, Seed: 1, Pressure: press})
	if bc.ElapsedSecs*2 >= gen.ElapsedSecs {
		t.Fatalf("BC %.3fs not clearly faster than GenMS %.3fs under pressure",
			bc.ElapsedSecs, gen.ElapsedSecs)
	}
	if bc.Timeline.AvgPause() >= gen.Timeline.AvgPause() {
		t.Fatalf("BC avg pause %v not below GenMS %v",
			bc.Timeline.AvgPause(), gen.Timeline.AvgPause())
	}
	var bcGCFaults, genGCFaults uint64
	for _, p := range bc.Timeline.Pauses {
		bcGCFaults += p.MajorFaults
	}
	for _, p := range gen.Timeline.Pauses {
		genGCFaults += p.MajorFaults
	}
	if bcGCFaults > genGCFaults {
		t.Fatalf("BC took more GC faults (%d) than GenMS (%d)", bcGCFaults, genGCFaults)
	}
}

func TestDynamicPressureSchedule(t *testing.T) {
	res := Run(RunConfig{
		Collector: BC,
		Program:   tinyJBB(),
		HeapBytes: 8 << 20,
		PhysBytes: 64 << 20,
		Seed:      2,
		Pressure:  DynamicPressure(16 << 20),
	})
	if res.ElapsedSecs <= 0 {
		t.Fatal("run failed")
	}
}

func TestSteadyPressureHelper(t *testing.T) {
	p := SteadyPressure(100<<20, 0.6)
	if p.InitialBytes != 60<<20 {
		t.Fatalf("InitialBytes = %d", p.InitialBytes)
	}
}

func TestSignalMemReachesTarget(t *testing.T) {
	res := Run(RunConfig{
		Collector: BC,
		Program:   mutator.PseudoJBB().Scale(0.05),
		HeapBytes: 12 << 20,
		PhysBytes: 64 << 20,
		Seed:      3,
		Pressure: &Pressure{
			InitialBytes:     8 << 20,
			GrowBytes:        1 << 20,
			GrowEvery:        100 * time.Microsecond, // fast, to finish within the run
			TargetAvailBytes: 24 << 20,
		},
	})
	_ = res
}

// twoJVMs runs two tenants configured as cfg on one machine with no
// arbitration policy: the paper's two concurrent JVMs (§5.3.3).
func twoJVMs(cfg RunConfig) FleetResult {
	jvm := TenantSpec{Collector: cfg.Collector, Program: cfg.Program, HeapBytes: cfg.HeapBytes}
	return RunFleet(FleetConfig{
		Spec:     FleetSpec{Tenants: []TenantSpec{jvm, jvm}, PhysBytes: cfg.PhysBytes, Seed: cfg.Seed},
		Trace:    cfg.Trace,
		Counters: cfg.Counters,
	})
}

func TestTwoJVMsBothWork(t *testing.T) {
	fr := twoJVMs(RunConfig{
		Collector: BC,
		Program:   mutator.PseudoJBB().Scale(0.01),
		HeapBytes: 6 << 20,
		PhysBytes: 64 << 20,
		Seed:      4,
	})
	if fr.Err != nil || len(fr.Tenants) != 2 {
		t.Fatalf("%d results, err %v", len(fr.Tenants), fr.Err)
	}
	for i, r := range fr.Tenants {
		if r.Mutator.AllocatedBytes == 0 {
			t.Fatalf("jvm %d did no work", i)
		}
		if r.Timeline.End <= r.Timeline.Start {
			t.Fatalf("jvm %d has empty timeline", i)
		}
	}
}

func TestUnknownCollectorFails(t *testing.T) {
	r := Run(RunConfig{Collector: "Zap", Program: tinyJBB(), HeapBytes: 8 << 20, PhysBytes: 64 << 20})
	if r.Err == nil {
		t.Fatal("expected Result.Err for unknown collector")
	}
	if !strings.Contains(r.Err.Error(), "Zap") {
		t.Fatalf("error should name the collector: %v", r.Err)
	}
}

func TestAllCollectorsComputeIdenticalChecksum(t *testing.T) {
	// The mutator's checksum folds every value it reads; it depends only
	// on program and seed. Any divergence across collectors means a
	// collector corrupted the heap — a differential oracle over the
	// whole suite of collectors, including under memory pressure.
	prog := mutator.PseudoJBB().Scale(0.02)
	heap := uint64(4 << 20)
	var want uint64
	for i, kind := range append([]CollectorKind{BCResizeOnly, GenMSFixed, GenCopyFixed}, AllKinds...) {
		res := Run(RunConfig{
			Collector: kind, Program: prog, HeapBytes: heap,
			PhysBytes: 64 << 20, Seed: 99,
			Pressure: SteadyPressure(heap, 0.5),
		})
		if i == 0 {
			want = res.Mutator.Checksum
			if want == 0 {
				t.Fatal("checksum never accumulated")
			}
			continue
		}
		if res.Mutator.Checksum != want {
			t.Fatalf("%s checksum %#x differs from %#x: heap corruption",
				kind, res.Mutator.Checksum, want)
		}
	}
}

// TestMalformedSpecFails: a program the generator cannot run is a
// configuration error the run returns — from Run and from a one-tenant
// fleet alike — not a panic out of the generator's first draw, which the
// engine's out-of-memory recover would let through.
func TestMalformedSpecFails(t *testing.T) {
	valid := tinyJBB()
	for name, breakIt := range map[string]func(p *mutator.Spec){
		"no sizes":        func(p *mutator.Spec) { p.Sizes = nil },
		"zero weight":     func(p *mutator.Spec) { p.Sizes = []mutator.SizeBand{{Array: true, MaxWords: 4}} },
		"negative weight": func(p *mutator.Spec) { p.Sizes = []mutator.SizeBand{{Weight: 3}, {Weight: -1}} },
		"max below min": func(p *mutator.Spec) {
			p.Sizes = []mutator.SizeBand{{Weight: 1, Array: true, MinWords: 8, MaxWords: 4}}
		},
		"negative min": func(p *mutator.Spec) {
			p.Sizes = []mutator.SizeBand{{Weight: 1, Array: true, MinWords: -2, MaxWords: 4}}
		},
		"negative work":  func(p *mutator.Spec) { p.WorkPerAlloc = -1 },
		"negative link":  func(p *mutator.Spec) { p.LinkEvery = -1 },
		"negative large": func(p *mutator.Spec) { p.LargeEvery = -1 },
		"negative ring":  func(p *mutator.Spec) { p.LargeLive = -1 },
		"empty large":    func(p *mutator.Spec) { p.LargeEvery, p.LargeWords = 10, 0 },
		"live frac":      func(p *mutator.Spec) { p.LiveFrac = 1.5 },
		"immortal frac":  func(p *mutator.Spec) { p.ImmortalFrac = -0.1 },
		"temp frac":      func(p *mutator.Spec) { p.TempFrac = math.NaN() },
	} {
		prog := valid
		breakIt(&prog)
		if prog.Validate() == nil {
			t.Errorf("%s: Validate accepted %+v", name, prog)
		}
		cfg := RunConfig{Collector: GenMS, Program: prog, HeapBytes: 8 << 20, PhysBytes: 64 << 20, Seed: 1}
		if r := Run(cfg); r.Err == nil || !strings.Contains(r.Err.Error(), prog.Name) {
			t.Errorf("%s: Run returned Err = %v, want one naming the program", name, r.Err)
		}
		fr := RunFleet(oneTenantFleet(cfg, "", 0))
		if fr.Err == nil && (len(fr.Tenants) != 1 || fr.Tenants[0].Err == nil) {
			t.Errorf("%s: one-tenant fleet reported no error: %+v", name, fr)
		}
	}
	// The reproducer this test was written for: a Spec literal with no
	// Sizes at all died with "invalid argument to Intn".
	r := Run(RunConfig{
		Collector: GenMS, HeapBytes: 8 << 20, PhysBytes: 64 << 20,
		Program: mutator.Spec{Name: "x", TotalAlloc: 1 << 20, MinHeap: 1 << 20, LiveFrac: 0.5},
	})
	if r.Err == nil {
		t.Fatal("a Spec with no size bands ran")
	}
	for _, p := range mutator.Programs {
		if err := p.Validate(); err != nil {
			t.Errorf("stock program rejected: %v", err)
		}
	}
}

// pinTracer records the frames of each memory-pinned point.
type pinTracer struct {
	trace.Nop
	frames []int64
}

func (p *pinTracer) Point(e trace.Event, frames, _ int64) {
	if e == trace.EvMemoryPinned {
		p.frames = append(p.frames, frames)
	}
}

// TestSignalMemStopsBelowAPage: under a calibrated ramp to a target no
// whole number of pages meets, the ramp ends less than a page above the
// target. signalmem then stops: no grow pins zero frames or stays
// scheduled, and every whole frame above the target is pinned, as before
// the ramp learned to stop.
func TestSignalMemStopsBelowAPage(t *testing.T) {
	const phys = 64 << 20
	avail := uint64(phys/2 + mem.PageSize/2)
	p := CalibratedDynamicPressure(phys, avail, 8<<20, 1<<20, 300*time.Millisecond)
	v := vmm.New(vmm.NewClock(), phys, vmm.DefaultCosts())
	tr := &pinTracer{}
	StartSignalMem(v, *p, tr)
	for i := 0; i < 1000 && len(v.Clock.Pending()) > 0; i++ {
		v.Clock.Advance(p.GrowEvery)
	}
	if n := len(v.Clock.Pending()); n != 0 {
		t.Errorf("%d events still scheduled after the ramp", n)
	}
	var sum int64
	for i, f := range tr.frames {
		if f == 0 {
			t.Errorf("pin %d of %d pinned zero frames", i, len(tr.frames))
			break
		}
		sum += f
	}
	want := (phys - avail) / mem.PageSize
	if got := v.PinnedFrames(); uint64(got) != want || sum != int64(got) {
		t.Errorf("pinned %d frames (points sum to %d), want %d", got, sum, want)
	}
}
