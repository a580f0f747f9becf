package mutator

import (
	"strings"
	"testing"

	"bookmarkgc/internal/collectors"
	"bookmarkgc/internal/gc"
	"bookmarkgc/internal/vmm"
)

func testEnv(t testing.TB, heapMB int) *gc.Env {
	t.Helper()
	clock := vmm.NewClock()
	v := vmm.New(clock, 512<<20, vmm.DefaultCosts())
	return gc.NewEnv(v, "mut-test", uint64(heapMB)<<20)
}

func TestProgramsTableMatchesPaper(t *testing.T) {
	// Table 1 of the paper, exactly.
	want := map[string][2]uint64{
		"compress":  {109_190_172, 16_777_216},
		"jess":      {267_602_628, 12_582_912},
		"raytrace":  {92_381_448, 14_680_064},
		"db":        {61_216_580, 19_922_944},
		"javac":     {181_468_984, 19_922_944},
		"jack":      {250_486_124, 11_534_336},
		"ipsixql":   {350_889_840, 11_534_336},
		"jython":    {770_632_824, 11_534_336},
		"pseudojbb": {233_172_290, 35_651_584},
	}
	if len(Programs) != len(want) {
		t.Fatalf("suite has %d programs, want %d", len(Programs), len(want))
	}
	for _, p := range Programs {
		w, ok := want[p.Name]
		if !ok {
			t.Errorf("unexpected program %q", p.Name)
			continue
		}
		if p.TotalAlloc != w[0] || p.MinHeap != w[1] {
			t.Errorf("%s: (%d, %d) != Table 1 (%d, %d)", p.Name, p.TotalAlloc, p.MinHeap, w[0], w[1])
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName invented a program")
	}
	if PseudoJBB().ImmortalFrac == 0 {
		t.Error("pseudoJBB must have immortal data (§5.3.2)")
	}
}

func TestScale(t *testing.T) {
	p := PseudoJBB()
	s := p.Scale(0.1)
	if s.TotalAlloc != p.TotalAlloc/10 {
		t.Fatalf("scaled alloc = %d", s.TotalAlloc)
	}
	tiny := p.Scale(0.000001)
	if tiny.MinHeap < 1<<20 {
		t.Fatal("MinHeap not floored")
	}
}

func TestRunAllocatesRequestedVolume(t *testing.T) {
	env := testEnv(t, 8)
	types := DeclareTypes(env)
	c := collectors.NewGenMS(env)
	spec := PseudoJBB().Scale(0.02) // ~4.7 MB of allocation
	r := NewRun(spec, c, types, 1)
	res := r.RunToCompletion()
	if res.AllocatedBytes < spec.TotalAlloc {
		t.Fatalf("allocated %d < requested %d", res.AllocatedBytes, spec.TotalAlloc)
	}
	if res.AllocatedBytes > spec.TotalAlloc+spec.TotalAlloc/4 {
		t.Fatalf("allocated %d overshoots %d", res.AllocatedBytes, spec.TotalAlloc)
	}
	if res.Allocations == 0 {
		t.Fatal("no allocations counted")
	}
	if got := c.Stats().BytesAlloc; got < res.AllocatedBytes {
		t.Fatalf("collector saw %d bytes, run claims %d", got, res.AllocatedBytes)
	}
}

func TestRunIsDeterministic(t *testing.T) {
	spec := PseudoJBB().Scale(0.01)
	run := func() (uint64, int) {
		env := testEnv(t, 8)
		types := DeclareTypes(env)
		c := collectors.NewGenMS(env)
		res := NewRun(spec, c, types, 42).RunToCompletion()
		return res.Allocations, c.Stats().Timeline.Count()
	}
	a1, g1 := run()
	a2, g2 := run()
	if a1 != a2 || g1 != g2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", a1, g1, a2, g2)
	}
}

func TestRunStepQuantum(t *testing.T) {
	env := testEnv(t, 8)
	types := DeclareTypes(env)
	c := collectors.NewGenMS(env)
	spec := PseudoJBB().Scale(0.005)
	r := NewRun(spec, c, types, 1)
	steps := 0
	for r.Step(100) {
		steps++
		if steps > 1e6 {
			t.Fatal("run never terminates")
		}
	}
	if !r.Done() {
		t.Fatal("Done() false after Step returned false")
	}
	if r.Finish().AllocatedBytes < spec.TotalAlloc {
		t.Fatal("stepped run under-allocated")
	}
}

func TestLiveSetRoughlyCalibrated(t *testing.T) {
	// After a full collection mid-run, the mature footprint should be in
	// the neighbourhood of LiveFrac*MinHeap — the calibration Table 1
	// rests on. Allow generous slack (fragmentation, pool granularity).
	env := testEnv(t, 16)
	types := DeclareTypes(env)
	c := collectors.NewGenMS(env)
	spec := PseudoJBB().Scale(0.1)
	r := NewRun(spec, c, types, 3)
	for i := 0; i < 40 && r.Step(2000); i++ {
	}
	c.Collect(true)
	livePages := c.UsedPages()
	liveBytes := uint64(livePages) * 4096
	target := uint64(float64(spec.MinHeap) * spec.LiveFrac)
	if liveBytes < target/4 || liveBytes > target*3 {
		t.Fatalf("live footprint %d bytes, calibration target %d", liveBytes, target)
	}
}

func TestWorkTouchesLiveObjects(t *testing.T) {
	env := testEnv(t, 8)
	types := DeclareTypes(env)
	c := collectors.NewGenMS(env)
	spec := Spec{
		Name: "touchy", TotalAlloc: 1 << 20, MinHeap: 2 << 20,
		LiveFrac: 0.3, TempFrac: 0.5, Sizes: smallMix,
		WorkPerAlloc: 8, LinkEvery: 4,
	}
	before := env.Proc.Stats().MinorFaults
	NewRun(spec, c, types, 9).RunToCompletion()
	if env.Proc.Stats().MinorFaults == before {
		t.Fatal("no memory was touched at all")
	}
}

// TestWorkOnReferenceArrayPanics: a work step has no data word to use in
// a reference array, so dataIndex refuses one, naming its type, rather
// than store an integer into reference slot 0.
func TestWorkOnReferenceArrayPanics(t *testing.T) {
	env := testEnv(t, 4)
	types := DeclareTypes(env)
	r := NewRun(PseudoJBB().Scale(0.02), collectors.NewMarkSweep(env), types, 1)
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, `"refs"`) {
			t.Errorf("dataIndex on a reference array: panic %q, want one naming the type", msg)
		}
	}()
	r.dataIndex(uint64(uint32(types.RefArr.ID)), 3<<32)
}
