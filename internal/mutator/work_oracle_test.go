package mutator

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"bookmarkgc/internal/collectors"
	"bookmarkgc/internal/core"
	"bookmarkgc/internal/gc"
	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/objmodel"
	"bookmarkgc/internal/vmm"
)

// The work step charges its three or six accesses through one mem window
// when it can (Run.work). The oracle below is the loop body it replaced:
// a header decode through the type table and a collector call per data
// access, nothing batched. Two identical machines run the same program,
// one through Step and one through refStep, and must stay
// indistinguishable — simulated clock, fault statistics, page flags, data
// checksum, and every event a recorder would see.

// refStep is Step with the work items done by refWorkStep.
func (r *Run) refStep(quantum int, seen *workSeen) bool {
	if r.done {
		return false
	}
	if !r.started {
		r.start()
	}
	for q := 0; q < quantum; q++ {
		if r.allocd >= r.spec.TotalAlloc {
			r.done = true
			return false
		}
		r.allocate()
		for w := 0; w < r.spec.WorkPerAlloc; w++ {
			r.refWorkStep(w, seen)
		}
		r.link()
		if r.sink != nil {
			r.sink.StepEnd()
		}
	}
	return true
}

// workSeen counts the shapes the reference side met, so the test can tell
// that the cases the window has to leave were really there.
type workSeen struct {
	scalars, arrays int
	offPage         int // datum on another page than the header
	large           int // objects of at least a superpage: the LOS
}

func (r *Run) refWorkStep(w int, seen *workSeen) {
	s := int(r.live[r.rng.Intn(len(r.live))])
	obj := r.roots.Get(s)
	ri := r.refDataIndexOf(obj, seen)
	v := r.c.ReadData(obj, ri)
	r.checksum = r.checksum*31 + v
	if w&3 == 0 {
		wi := r.refDataIndexOf(obj, seen)
		r.c.WriteData(obj, wi, v+1)
		if r.sink != nil {
			r.sink.Work(s, ri, true, wi)
		}
	} else if r.sink != nil {
		r.sink.Work(s, ri, false, 0)
	}
}

func (r *Run) refDataIndexOf(obj objmodel.Ref, seen *workSeen) int {
	t, n := r.tt.TypeOf(r.space, obj)
	d := 0
	if t.Kind != objmodel.KindArray {
		seen.scalars++
		d = 2 + r.rng.Intn(2)
	} else if !t.ElemPtr && n > 0 {
		seen.arrays++
		d = r.rng.Intn(n)
	}
	if gc.DataAddr(obj, d).Page() != (obj + mem.WordSize).Page() {
		seen.offPage++
	}
	if t.TotalBytes(n) >= mem.SuperSize {
		seen.large++
	}
	return d
}

// eventLog is a Sink that keeps the whole event sequence.
type eventLog struct{ ev []string }

func (l *eventLog) Alloc(kind byte, words int, hasInit bool, initIdx int, initVal uint64) {
	l.ev = append(l.ev, fmt.Sprint("alloc ", kind, words, hasInit, initIdx, initVal))
}
func (l *eventLog) RootAdd(slot int)    { l.ev = append(l.ev, fmt.Sprint("add ", slot)) }
func (l *eventLog) RootAddNil(slot int) { l.ev = append(l.ev, fmt.Sprint("addnil ", slot)) }
func (l *eventLog) RootSet(slot int)    { l.ev = append(l.ev, fmt.Sprint("set ", slot)) }
func (l *eventLog) Work(slot, readIdx int, write bool, writeIdx int) {
	l.ev = append(l.ev, fmt.Sprint("work ", slot, readIdx, write, writeIdx))
}
func (l *eventLog) Link(srcSlot, dstSlot int, hasWrite bool, refIdx int) {
	l.ev = append(l.ev, fmt.Sprint("link ", srcSlot, dstSlot, hasWrite, refIdx))
}
func (l *eventLog) StepEnd() { l.ev = append(l.ev, "end") }

// oracleSpec mixes every shape the work step distinguishes: scalar nodes,
// small arrays, arrays longer than a page (they straddle one wherever
// they land, and short ones do in the bump-allocated nursery), and large
// buffers that displace pool entries, so the work loop draws them from
// the large object space.
var oracleSpec = Spec{
	Name: "oracle", TotalAlloc: 3 << 20, MinHeap: 4 << 20,
	LiveFrac: 0.35, ImmortalFrac: 0.3, TempFrac: 0.6,
	Sizes: []SizeBand{
		{Weight: 40},
		{Weight: 30, Array: true, MinWords: 0, MaxWords: 16},
		{Weight: 30, Array: true, MinWords: 100, MaxWords: 700},
	},
	LargeEvery: 40, LargeWords: 3000,
	WorkPerAlloc: 9, LinkEvery: 5,
}

// oracleSide is one machine of the comparison.
type oracleSide struct {
	clock *vmm.Clock
	v     *vmm.VMM
	env   *gc.Env
	run   *Run
	log   eventLog
	ticks uint64
}

// tick is the machine's recurring clock event, a few dozen accesses
// apart and at odd nanoseconds, so that it falls due before, between and
// just after the accesses of many windows. It logs when it ran — an
// access that slipped past its deadline inside a mis-sized window would
// delay it — and on a paging machine it now and then moves the pressure, so eviction
// notices reach the collector from inside the event.
func (s *oracleSide) tick(paging bool) {
	s.log.ev = append(s.log.ev, fmt.Sprint("tick ", s.clock.Now()))
	s.ticks++
	if paging && s.ticks%64 == 0 {
		if s.ticks%128 == 0 {
			s.v.Unpin(4)
		} else {
			s.v.Pin(4)
		}
	}
	gap := time.Duration(1 + s.ticks*2654435761>>7%300)
	s.clock.Schedule(s.clock.Now()+gap, func() { s.tick(paging) })
}

func newOracleSide(physBytes uint64, bc bool, seed int64) *oracleSide {
	s := &oracleSide{clock: vmm.NewClock()}
	s.v = vmm.New(s.clock, physBytes, vmm.DefaultCosts())
	s.env = gc.NewEnv(s.v, "oracle", 6<<20)
	var c gc.Collector = collectors.NewGenMS(s.env)
	if bc {
		c = core.New(s.env, core.Config{})
	}
	s.run = NewRun(oracleSpec, c, DeclareTypes(s.env), seed)
	s.run.SetSink(&s.log)
	s.clock.Schedule(1, func() { s.tick(physBytes < oracleSpec.MinHeap) })
	return s
}

func TestWorkStepMatchesPerAccessOracle(t *testing.T) {
	for _, tc := range []struct {
		name string
		phys uint64
		bc   bool
	}{
		{"ample/GenMS", 64 << 20, false},
		{"ample/BC", 64 << 20, true},
		{"paging/GenMS", 1200 << 10, false},
		{"paging/BC", 1200 << 10, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := newOracleSide(tc.phys, tc.bc, 11)  // windowed
			want := newOracleSide(tc.phys, tc.bc, 11) // the oracle
			var seen workSeen
			for q := 0; ; q++ {
				more := want.run.refStep(7, &seen)
				if got.run.Step(7) != more {
					t.Fatalf("quantum %d: Step and the oracle disagree on the end of the run", q)
				}
				compareSides(t, fmt.Sprintf("quantum %d", q), got, want)
				got.log.ev, want.log.ev = got.log.ev[:0], want.log.ev[:0]
				if !more {
					break
				}
			}
			if err := got.v.CheckAccounting(); err != nil {
				t.Fatal(err)
			}
			if seen.scalars == 0 || seen.arrays == 0 || seen.offPage == 0 || seen.large == 0 {
				t.Fatalf("the program missed a shape: %+v", seen)
			}
			st := want.env.Proc.Stats()
			if paging := tc.phys < oracleSpec.MinHeap; paging != (st.MajorFaults > 0 && st.Evictions > 0) {
				t.Fatalf("paging = %v, but the oracle's process saw %+v", paging, st)
			}
		})
	}
}

func compareSides(t *testing.T, ctx string, got, want *oracleSide) {
	t.Helper()
	if got.clock.Now() != want.clock.Now() {
		t.Fatalf("%s: clock %v, oracle %v", ctx, got.clock.Now(), want.clock.Now())
	}
	if got.env.Proc.Stats() != want.env.Proc.Stats() || got.v.Stats() != want.v.Stats() {
		t.Fatalf("%s: stats differ\n got:    %+v %+v\n oracle: %+v %+v",
			ctx, got.env.Proc.Stats(), got.v.Stats(), want.env.Proc.Stats(), want.v.Stats())
	}
	if g, w := got.run, want.run; g.checksum != w.checksum || g.allocd != w.allocd || g.nAllocs != w.nAllocs {
		t.Fatalf("%s: checksum %#x after %d allocations, oracle %#x after %d", ctx, g.checksum, g.nAllocs, w.checksum, w.nAllocs)
	}
	if !slices.Equal(got.env.Space.PageFlags(), want.env.Space.PageFlags()) {
		t.Fatalf("%s: page flags differ", ctx)
	}
	if !slices.Equal(got.log.ev, want.log.ev) {
		for i := range want.log.ev {
			if i >= len(got.log.ev) || got.log.ev[i] != want.log.ev[i] {
				t.Fatalf("%s: event %d is %q, oracle %q", ctx, i, got.log.ev[min(i, len(got.log.ev)-1)], want.log.ev[i])
			}
		}
		t.Fatalf("%s: %d events, oracle %d", ctx, len(got.log.ev), len(want.log.ev))
	}
}
