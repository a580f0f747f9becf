package gc_test

import (
	"testing"

	"bookmarkgc/internal/gc"
	"bookmarkgc/internal/heappolicy"
	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/sim"
	"bookmarkgc/internal/vmm"
)

// gcEndRecorder is a heap policy that reads only a collection's end: it
// records every observation and answers with the target it is given.
type gcEndRecorder struct {
	target int
	seen   []heappolicy.Signals
}

func (r *gcEndRecorder) Name() string                   { return "gc-end-recorder" }
func (r *gcEndRecorder) Wants(ev heappolicy.Event) bool { return ev == heappolicy.EvGCEnd }
func (r *gcEndRecorder) Target() int                    { return r.target }
func (r *gcEndRecorder) PressureSensitive() bool        { return false }
func (r *gcEndRecorder) Observe(_ heappolicy.Event, s heappolicy.Signals) int {
	r.seen = append(r.seen, s)
	return r.target
}

// TestCollectObservesGCEndOnce: whichever collection Collect runs — a
// full one, a young one, or a young one whose Appel share is used up so
// it goes on to a full one — the heap policy sees the collection's end
// exactly once, and only after the last pause closed: the cumulative
// pause time it is handed is the timeline's total.
func TestCollectObservesGCEndOnce(t *testing.T) {
	for _, kind := range sim.KnownKinds {
		t.Run(string(kind), func(t *testing.T) {
			env := gc.NewEnv(vmm.New(vmm.NewClock(), 64<<20, vmm.DefaultCosts()), "collect", 8<<20)
			pol := &gcEndRecorder{target: env.HeapPages}
			env.HeapPolicy = pol
			col, err := sim.NewCollector(kind, env)
			if err != nil {
				t.Fatal(err)
			}
			node := env.Types.Scalar("node", 4, 0, 1)
			list := col.Roots().Add(mem.Nil)
			for i := 0; i < 4000; i++ {
				o := col.Alloc(node, 0)
				if i%4 == 0 {
					col.WriteRef(o, 0, col.Roots().Get(list))
					col.Roots().Set(list, o)
				}
			}
			// A target of one page leaves the young space only the
			// MinNurseryPages floor, so a young collection escalates:
			// a collector whose young collection is a nursery one then
			// runs a nursery and a full collection.
			generational := false
			for _, step := range []struct {
				name   string
				full   bool
				target int
			}{
				{"full", true, env.HeapPages},
				{"young", false, env.HeapPages},
				{"young escalating", false, 1},
			} {
				pol.target = step.target
				st := col.Stats()
				seen, nursery, full := len(pol.seen), st.Nursery, st.Full
				col.Collect(step.full)
				if n := len(pol.seen) - seen; n != 1 {
					t.Fatalf("%s: %d EvGCEnd observations, want 1", step.name, n)
				}
				if got, want := pol.seen[seen].GCTimeNS, int64(st.Timeline.TotalPause()); got != want {
					t.Errorf("%s: observed GC time %d ns, timeline total %d ns: observed before the last pause closed", step.name, got, want)
				}
				if step.name == "young" {
					generational = st.Nursery == nursery+1
				}
				want := [2]uint64{0, 1} // nursery, full
				switch {
				case step.name == "young" && generational:
					want = [2]uint64{1, 0}
				case step.name == "young escalating" && generational:
					want = [2]uint64{1, 1}
				}
				if got := [2]uint64{st.Nursery - nursery, st.Full - full}; got != want {
					t.Errorf("%s: %d nursery and %d full collections, want %d and %d", step.name, got[0], got[1], want[0], want[1])
				}
			}
		})
	}
}
