package vmm

import (
	"testing"

	"bookmarkgc/internal/mem"
)

// countHandler counts the notices a reclaim pass delivers and vetoes none.
type countHandler struct{ notices int }

func (h *countHandler) EvictionScheduled(mem.PageID)  { h.notices++ }
func (h *countHandler) PageReloaded(mem.PageID, bool) {}

// Reclaim workload geometry: a hot set a quarter of the frames, touched
// between faults, and a cold cycle twice the frames, every page of which
// faults.
const (
	reclaimFrames = 256
	reclaimHot    = reclaimFrames / 4
	reclaimCold   = 2 * reclaimFrames
)

// reclaimMachine returns a machine whose every frame is in use and a step
// that keeps it that way: step(i) touches hot page i mod reclaimHot, then
// faults in cold page i mod reclaimCold. Every batch of faults drops the
// free frames below the low-water mark and runs one reclaim pass: refill
// the inactive FIFO from the active list under the clock, give the hot,
// referenced pages a second chance, notify the owner and evict.
func reclaimMachine(tb testing.TB) (v *VMM, h *countHandler, step func(i int)) {
	tb.Helper()
	v = New(NewClock(), reclaimFrames*mem.PageSize, DefaultCosts())
	p := v.NewProc("bench", (1+reclaimHot+reclaimCold)*mem.PageSize)
	h = &countHandler{}
	p.Register(h)
	step = func(i int) {
		p.Touch(mem.PageID(1+i%reclaimHot), false)
		p.Touch(mem.PageID(1+reclaimHot+i%reclaimCold), true)
	}
	// Warm up: fill every frame, then cycle until the queues' backing
	// arrays have reached their steady size.
	for i := 0; i < 8*reclaimCold; i++ {
		step(i)
	}
	if v.FreeFrames() >= v.lowWater+v.batch {
		tb.Fatalf("%d free frames after warm-up: the frame budget is not full", v.FreeFrames())
	}
	return v, h, step
}

// BenchmarkVMMReclaim measures the two-queue clock scan under a full
// frame budget, per faulting page: the fault, its share of one reclaim
// pass every batch of faults, and the eviction notice.
func BenchmarkVMMReclaim(b *testing.B) {
	v, h, step := reclaimMachine(b)
	before, notices := v.Stats(), h.notices
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
	b.StopTimer()
	after := v.Stats()
	if b.N >= reclaimCold && (after.Reclaims == before.Reclaims || after.Evictions == before.Evictions || h.notices == notices) {
		b.Fatalf("%d faults ran %d reclaim passes, %d evictions, %d notices: the scan never ran",
			b.N, after.Reclaims-before.Reclaims, after.Evictions-before.Evictions, h.notices-notices)
	}
	if err := v.CheckAccounting(); err != nil {
		b.Fatal(err)
	}
}

// TestReclaimDoesNotAllocate: once the queues have reached their steady
// size, faulting under a full frame budget — reclaim passes included —
// allocates nothing.
func TestReclaimDoesNotAllocate(t *testing.T) {
	v, _, step := reclaimMachine(t)
	reclaims, i := v.Stats().Reclaims, 0
	if n := testing.AllocsPerRun(4*reclaimCold, func() { step(i); i++ }); n != 0 {
		t.Errorf("%v allocs per fault under a full frame budget, want 0", n)
	}
	if v.Stats().Reclaims == reclaims {
		t.Error("no reclaim pass ran")
	}
}
