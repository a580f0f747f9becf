package bookmarkgc_test

import (
	"os"
	"path/filepath"
	"testing"

	"bookmarkgc"
)

func TestRuntimeObjectAPI(t *testing.T) {
	m := bookmarkgc.NewMachine(128 << 20)
	rt := m.NewRuntime("t", bookmarkgc.BC, 8<<20)
	node := rt.DefineScalar("node", 4, 0, 1)
	arr := rt.DefineArray("arr", false)

	head := rt.NewRoot(bookmarkgc.Nil)
	for i := 0; i < 50_000; i++ {
		n := rt.Alloc(node)
		rt.WriteData(n, 2, uint64(i))
		rt.WriteRef(n, 0, rt.Root(head))
		rt.SetRoot(head, n)
	}
	// Garbage churn well beyond the heap size forces collections.
	for i := 0; i < 300_000; i++ {
		rt.Alloc(node)
	}
	big := rt.NewRoot(rt.AllocArray(arr, 2048))
	rt.WriteData(rt.Root(big), 100, 9)
	rt.Collect(true)

	o := rt.Root(head)
	for i := 49_999; i >= 49_990; i-- {
		if got := rt.ReadData(o, 2); got != uint64(i) {
			t.Fatalf("node %d = %d", i, got)
		}
		o = rt.ReadRef(o, 0)
	}
	if rt.ReadData(rt.Root(big), 100) != 9 {
		t.Fatal("array corrupted")
	}
	if rt.Stats().Nursery == 0 {
		t.Fatal("no nursery collections")
	}
	if rt.Timeline().Elapsed() <= 0 {
		t.Fatal("no simulated time")
	}
	if rt.HeapPages() <= 0 {
		t.Fatal("no footprint")
	}
	rt.DropRoot(big)
}

func TestMachinePressureAPI(t *testing.T) {
	m := bookmarkgc.NewMachine(64 << 20)
	rt := m.NewRuntime("t", bookmarkgc.GenMS, 8<<20)
	node := rt.DefineScalar("node", 4, 0, 1)
	for i := 0; i < 30_000; i++ {
		rt.Alloc(node)
	}
	free0 := m.FreeMemory()
	m.PinMemory(free0 + 4<<20) // beyond free: forces eviction
	if m.FreeMemory() >= free0 {
		t.Fatal("pin did not reduce free memory")
	}
	for i := 0; i < 30_000; i++ {
		rt.Alloc(node)
	}
	if rt.MajorFaults() == 0 && m.VMM().Stats().Evictions == 0 {
		t.Fatal("pressure had no effect")
	}
	m.UnpinMemory(free0)
	if m.Now() <= 0 {
		t.Fatal("clock did not advance")
	}
}

func TestProgramRunThroughFacade(t *testing.T) {
	m := bookmarkgc.NewMachine(128 << 20)
	rt := m.NewRuntime("t", bookmarkgc.BC, 8<<20)
	prog := bookmarkgc.PseudoJBB().Scale(0.01)
	run := rt.NewProgramRun(prog, 5)
	res := run.RunToCompletion()
	if res.AllocatedBytes < prog.TotalAlloc {
		t.Fatal("program under-allocated")
	}
}

// slotLog records the root slots a program run registers and works on.
type slotLog struct {
	added, worked []int
}

func (l *slotLog) Alloc(byte, int, bool, int, uint64) {}
func (l *slotLog) RootAdd(slot int)                   { l.added = append(l.added, slot) }
func (l *slotLog) RootAddNil(slot int)                { l.added = append(l.added, slot) }
func (l *slotLog) RootSet(int)                        {}
func (l *slotLog) Work(slot, _ int, _ bool, _ int)    { l.worked = append(l.worked, slot) }
func (l *slotLog) Link(src, dst int, _ bool, _ int)   { l.worked = append(l.worked, src, dst) }
func (l *slotLog) StepEnd()                           {}

// TestProgramRunLeavesFreedRootsFree starts a program on a runtime whose
// caller has added roots and released some of them: the program's slots
// — its live objects and, for compress, its large-buffer ring — are one
// block past the caller's, it draws only from that block, and the freed
// slots are still free when it ends.
func TestProgramRunLeavesFreedRootsFree(t *testing.T) {
	for _, prog := range bookmarkgc.Programs() {
		if prog.Name != "pseudojbb" && prog.Name != "compress" {
			continue
		}
		t.Run(prog.Name, func(t *testing.T) {
			m := bookmarkgc.NewMachine(128 << 20)
			rt := m.NewRuntime("t", bookmarkgc.GenMS, 8<<20)
			node := rt.DefineScalar("node", 4, 0, 1)
			var mine []int
			for i := 0; i < 6; i++ {
				o := rt.Alloc(node)
				rt.WriteData(o, 2, uint64(i))
				mine = append(mine, rt.NewRoot(o))
			}
			rt.DropRoot(mine[1])
			rt.DropRoot(mine[4])

			run := rt.NewProgramRun(prog.Scale(0.01), 5)
			var log slotLog
			run.SetSink(&log)
			run.RunToCompletion()

			if len(log.added) < 8 {
				t.Fatalf("the program registered %d roots", len(log.added))
			}
			for i, s := range log.added {
				if s != len(mine)+i {
					t.Fatalf("program root %d is in slot %d, want %d: not one block past the caller's", i, s, len(mine)+i)
				}
			}
			for _, s := range log.worked {
				if s < len(mine) || s >= len(mine)+len(log.added) {
					t.Fatalf("the program worked on slot %d, outside its block [%d, %d)", s, len(mine), len(mine)+len(log.added))
				}
			}
			for i, s := range mine {
				if freed := i == 1 || i == 4; freed != (rt.Root(s) == bookmarkgc.Nil) {
					t.Fatalf("caller slot %d holds %#x after the run (freed: %v)", s, rt.Root(s), freed)
				}
				if i != 1 && i != 4 && rt.ReadData(rt.Root(s), 2) != uint64(i) {
					t.Fatalf("caller slot %d lost its object", s)
				}
			}
			if a, b := rt.NewRoot(bookmarkgc.Nil), rt.NewRoot(bookmarkgc.Nil); a != mine[4] || b != mine[1] {
				t.Fatalf("the next roots took slots %d and %d, want the freed %d and %d", a, b, mine[4], mine[1])
			}
		})
	}
}

func TestRunAndExperimentSurface(t *testing.T) {
	if len(bookmarkgc.Programs()) != 9 {
		t.Fatalf("suite size %d", len(bookmarkgc.Programs()))
	}
	if len(bookmarkgc.Experiments()) < 8 {
		t.Fatal("experiments missing")
	}
	res := bookmarkgc.Run(bookmarkgc.RunConfig{
		Collector: bookmarkgc.CopyMS,
		Program:   bookmarkgc.PseudoJBB().Scale(0.01),
		HeapBytes: 4 << 20,
		PhysBytes: 64 << 20,
		Seed:      1,
	})
	if res.ElapsedSecs <= 0 {
		t.Fatal("run failed")
	}
	jvm := bookmarkgc.TenantSpec{Collector: bookmarkgc.BC, Program: bookmarkgc.PseudoJBB().Scale(0.005), HeapBytes: 4 << 20}
	fr := bookmarkgc.RunFleet(bookmarkgc.FleetConfig{Spec: bookmarkgc.FleetSpec{
		Tenants:   []bookmarkgc.TenantSpec{jvm, jvm},
		PhysBytes: 64 << 20,
		Seed:      1,
	}})
	if fr.Err != nil || len(fr.Tenants) != 2 {
		t.Fatal("RunFleet wrong")
	}
	if p := bookmarkgc.SteadyPressure(10<<20, 0.5); p.InitialBytes != 5<<20 {
		t.Fatal("SteadyPressure wrong")
	}
	if p := bookmarkgc.DynamicPressure(1 << 20); p.GrowBytes == 0 {
		t.Fatal("DynamicPressure wrong")
	}
}

// TestRecordTraceFailedWrite: the facade reports a trace it could not
// write and leaves nothing behind (a link to /dev/full stands in for a
// full disk; removing the output removes the link).
func TestRecordTraceFailedWrite(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	path := filepath.Join(t.TempDir(), "full.gctrace")
	if err := os.Symlink("/dev/full", path); err != nil {
		t.Fatal(err)
	}
	_, err := bookmarkgc.RecordTrace(path, bookmarkgc.RunConfig{
		Collector: bookmarkgc.GenMS,
		Program:   bookmarkgc.PseudoJBB().Scale(0.01),
		HeapBytes: 4 << 20,
		PhysBytes: 64 << 20,
		Seed:      1,
	})
	if err == nil {
		t.Error("recording to a full device succeeded")
	}
	if _, err := os.Lstat(path); !os.IsNotExist(err) {
		t.Errorf("the failed trace was left behind (Lstat: %v)", err)
	}
}
