package heap

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/objmodel"
	"bookmarkgc/internal/vmm"
)

// refAllocIn is the allocator's placement written bit by bit: the first
// clear bit from block 0 whose pages the filter accepts. It charges what
// the model charges for the scan, one read of each bitmap word it
// examines, taken at the word's first bit. It is the oracle the cursor
// must agree with, access for access.
func refAllocIn(ss *SuperSpace, idx int, cl objmodel.SizeClass, t *objmodel.Type, arrayLen int) objmodel.Ref {
	var word uint64
	for b := 0; b < cl.Blocks; b++ {
		if b%64 == 0 {
			word = ss.hdr(idx, hdrBitmap+b/64)
		}
		if word&(1<<(b%64)) != 0 {
			continue
		}
		o := ss.BlockAddr(idx, b, cl)
		if ss.resident != nil && !ss.blockResident(o, cl.BlockSize) {
			continue
		}
		ss.setBit(idx, b)
		ss.setHdr(idx, hdrAllocated, ss.hdr(idx, hdrAllocated)+1)
		objmodel.ClearStatus(ss.s, o)
		objmodel.SetTypeWord(ss.s, o, t.ID, arrayLen)
		ss.s.ZeroRange(objmodel.Payload(o), uint64(t.PayloadWords(arrayLen))*mem.WordSize)
		return o
	}
	return mem.Nil
}

// refFreeResidentBlocks is FreeResidentBlocks written bit by bit, with
// the same one read per bitmap word.
func refFreeResidentBlocks(ss *SuperSpace, idx int) int {
	cl, _, ok := ss.ClassOf(idx)
	if !ok {
		return 0
	}
	n := 0
	var word uint64
	for b := 0; b < cl.Blocks; b++ {
		if b%64 == 0 {
			word = ss.hdr(idx, hdrBitmap+b/64)
		}
		if word&(1<<(b%64)) != 0 {
			continue
		}
		o := ss.BlockAddr(idx, b, cl)
		if ss.resident != nil && !ss.blockResident(o, cl.BlockSize) {
			continue
		}
		n++
	}
	return n
}

const cursorSupers = 24 // mature region of the oracle worlds: 96 pages over 64 frames

// pageTouches counts accesses per page: the charge record of a world with
// no VMM, where no page ever becomes resident and every access faults.
type pageTouches [(cursorSupers + 1) * mem.SuperPages][2]int

func (c *pageTouches) FaultTouch(p mem.PageID, write bool) {
	if write {
		c[p][1]++
	} else {
		c[p][0]++
	}
}

// cursorWorld is one side of the allocator oracle: a mature space over a
// paging machine (or, unwired, over a bare space whose toucher counts),
// with a residency filter the test and its clock events edit.
type cursorWorld struct {
	oracle bool // run the per-bit reference bodies
	s      *mem.Space
	ss     *SuperSpace

	clock *vmm.Clock // nil when unwired: no events, no VMM
	v     *vmm.VMM
	p     *vmm.Proc
	touch pageTouches

	rejected map[mem.PageID]bool
	rng      *rand.Rand // drawn only inside clock events
	log      []string
}

func newCursorWorld(oracle, wired bool, seed int64) *cursorWorld {
	w := &cursorWorld{oracle: oracle, rejected: map[mem.PageID]bool{}, rng: rand.New(rand.NewSource(seed))}
	const base, end = mem.SuperSize, (cursorSupers + 1) * mem.SuperSize
	if wired {
		w.clock = vmm.NewClock()
		w.v = vmm.New(w.clock, vmm.MinPhysBytes, vmm.DefaultCosts())
		w.p = w.v.NewProc("oracle", end)
		w.s = w.p.Space()
	} else {
		w.s = mem.NewSpace(end, vmm.NewClock(), vmm.DefaultCosts().WordAccess, &w.touch)
	}
	w.ss = NewSuperSpace(w.s, classes, base, end)
	w.ss.SetResidencyFilter(func(p mem.PageID) bool { return !w.rejected[p] })
	return w
}

func (w *cursorWorld) allocIn(idx int, cl objmodel.SizeClass, t *objmodel.Type, n int) objmodel.Ref {
	if w.oracle {
		return refAllocIn(w.ss, idx, cl, t, n)
	}
	return w.ss.allocIn(idx, cl, t, n)
}

func (w *cursorWorld) allocInSuper(idx int, t *objmodel.Type, n int) objmodel.Ref {
	if !w.oracle {
		return w.ss.AllocInSuper(idx, t, n)
	}
	cl, kind, ok := w.ss.ClassOf(idx)
	if !ok || kind != t.Kind {
		return mem.Nil
	}
	return refAllocIn(w.ss, idx, cl, t, n)
}

func (w *cursorWorld) freeResidentBlocks(idx int) int {
	if w.oracle {
		return refFreeResidentBlocks(w.ss, idx)
	}
	return w.ss.FreeResidentBlocks(idx)
}

// squeeze pins every frame for a moment, so reclaim evicts whatever it
// can — header pages included.
func (w *cursorWorld) squeeze() {
	w.v.Pin(w.v.TotalFrames())
	w.v.Unpin(w.v.TotalFrames())
}

// armEvent schedules a clock event that disturbs superpage idx the way a
// handler running between two bitmap reads could: flip an allocation bit
// (keeping the header's count in step), take the header page away, or
// change which pages pass the filter.
func (w *cursorWorld) armEvent(at time.Duration, idx int) {
	w.clock.Schedule(at, func() {
		w.log = append(w.log, fmt.Sprintf("%v event on super %d", w.clock.Now(), idx))
		ss := w.ss
		hdrPage := ss.HeaderPage(idx)
		switch w.rng.Intn(5) {
		case 0, 1:
			cl, _, ok := ss.ClassOf(idx)
			if !ok {
				return
			}
			b, n := w.rng.Intn(cl.Blocks), ss.hdr(idx, hdrAllocated)
			if !ss.testBit(idx, b) {
				ss.setBit(idx, b)
				ss.setHdr(idx, hdrAllocated, n+1)
			} else if n > 1 {
				ss.clearBit(idx, b)
				ss.setHdr(idx, hdrAllocated, n-1)
			}
		case 2:
			w.p.Protect(hdrPage)
		case 3:
			w.p.Relinquish([]mem.PageID{hdrPage})
			w.squeeze()
		case 4:
			pg := hdrPage + mem.PageID(w.rng.Intn(mem.SuperPages))
			w.rejected[pg] = !w.rejected[pg]
		}
	})
}

// cursorPair is the two worlds in lockstep.
type cursorPair struct {
	t        *testing.T
	cur, ref *cursorWorld
	logged   int
}

func (d *cursorPair) both(fn func(w *cursorWorld)) {
	fn(d.cur)
	fn(d.ref)
}

// compare requires every simulated observable of the two worlds to agree.
func (d *cursorPair) compare(ctx string) {
	d.t.Helper()
	a, b := d.cur, d.ref
	if a.clock != nil {
		if a.clock.Now() != b.clock.Now() {
			d.t.Fatalf("%s: clock %v with the cursor, %v bit by bit", ctx, a.clock.Now(), b.clock.Now())
		}
		if a.p.Stats() != b.p.Stats() || a.v.Stats() != b.v.Stats() {
			d.t.Fatalf("%s: stats differ\n cursor:     %+v %+v\n bit by bit: %+v %+v",
				ctx, a.p.Stats(), a.v.Stats(), b.p.Stats(), b.v.Stats())
		}
		if !slices.Equal(a.log[d.logged:], b.log[d.logged:]) {
			d.t.Fatalf("%s: events differ\n cursor:     %q\n bit by bit: %q", ctx, a.log[d.logged:], b.log[d.logged:])
		}
		d.logged = len(a.log)
	}
	if a.touch != b.touch {
		for pg := range a.touch {
			if a.touch[pg] != b.touch[pg] {
				d.t.Fatalf("%s: page %d touched %v (reads, writes) with the cursor, %v bit by bit", ctx, pg, a.touch[pg], b.touch[pg])
			}
		}
	}
	fa, fb := a.s.PageFlags(), b.s.PageFlags()
	if !bytes.Equal(fa, fb) {
		for pg := range fa {
			if fa[pg] != fb[pg] {
				d.t.Fatalf("%s: page %d flags %05b with the cursor, %05b bit by bit", ctx, pg, fa[pg], fb[pg])
			}
		}
	}
	// Headers and object words alike; a wired page with no flag set is
	// fresh or discarded and reads as zero in both worlds.
	for pg := mem.SuperPages; pg < len(fa); pg++ {
		if a.clock != nil && fa[pg] == 0 {
			continue
		}
		base := mem.PageAddr(mem.PageID(pg))
		for addr := base; addr < base+mem.PageSize; addr += mem.WordSize {
			if va, vb := a.s.PeekWord(addr), b.s.PeekWord(addr); va != vb {
				d.t.Fatalf("%s: word %#x holds %#x with the cursor, %#x bit by bit", ctx, addr, va, vb)
			}
		}
	}
}

// shape is one kind of object the oracle allocates.
type shape struct {
	t *objmodel.Type
	n int // array length
}

func (sh shape) class() objmodel.SizeClass {
	cl, _ := classes.ForSize(sh.t.TotalBytes(sh.n))
	return cl
}

// do runs one operation on superpage idx, which is assigned, and returns
// its result. pick is the step's random draw, the same in both worlds.
func (w *cursorWorld) do(op, idx int, shapes []shape, pick uint64, epoch uint32) uint64 {
	ss := w.ss
	switch {
	case op < 6:
		cl, kind, _ := ss.ClassOf(idx)
		var own, wrong shape // of the superpage's class; of the other kind
		for _, sh := range shapes {
			if sh.class().Index == cl.Index {
				own = sh
			} else if sh.t.Kind != kind {
				wrong = sh
			}
		}
		if op == 0 { // fill the superpage: the scan runs off the last bitmap word
			n := uint64(0)
			for w.allocIn(idx, cl, own.t, own.n) != mem.Nil {
				n++
			}
			return n
		}
		if op < 4 {
			return uint64(w.allocIn(idx, cl, own.t, own.n))
		}
		// Compaction's restricted allocation refuses the wrong kind.
		if pick%3 == 0 {
			own = wrong
		}
		return uint64(w.allocInSuper(idx, own.t, own.n))
	case op < 7:
		return uint64(w.freeResidentBlocks(idx))
	case op < 9: // free one allocated block
		var live []objmodel.Ref
		ss.ForEachObjectIn(idx, func(o objmodel.Ref) { live = append(live, o) })
		if len(live) == 0 {
			return 0
		}
		o := live[pick%uint64(len(live))]
		ss.FreeBlock(o)
		return uint64(o)
	default: // mark every other object and sweep the rest away
		k := 0
		ss.ForEachObjectIn(idx, func(o objmodel.Ref) {
			if k++; k%2 == 0 {
				objmodel.SetMark(w.s, o, epoch)
			}
		})
		freed, empty := ss.SweepSuper(idx, epoch)
		if empty {
			return uint64(freed)<<1 | 1
		}
		return uint64(freed) << 1
	}
}

// TestCursorMatchesPerBitAllocator drives seeded sequences of allocation,
// restricted allocation, frees, sweeps and capacity counts against the
// per-bit reference, over the class with the most blocks, a node-sized
// class and the largest class (none a multiple of 64 blocks), with the
// filter rejecting random pages, header pages evicted under the call and
// events due inside the scan. After every step both worlds must have
// returned the same block or count and be in the same simulated state:
// the same clock, faults and event order, so the cursor charged one read
// per bitmap word it examined, as the reference does.
func TestCursorMatchesPerBitAllocator(t *testing.T) {
	tb := objmodel.NewTable()
	shapes := []shape{{tb.Scalar("tiny", 0), 0}, {tb.Scalar("node", 4, 0, 1), 0}, {tb.Array("big", false), 900}}
	if lo, hi := shapes[0].class().Index, shapes[2].class().Index; lo != 0 || hi != classes.Len()-1 {
		t.Fatalf("shapes span classes %d to %d, want the smallest and the largest", lo, hi)
	}

	for _, tc := range []struct {
		name  string
		wired bool
		steps int
	}{{"paging", true, 2500}, {"unwired", false, 500}} {
		t.Run(tc.name, func(t *testing.T) {
			steps := tc.steps
			if testing.Short() {
				steps /= 5
			}
			d := &cursorPair{t: t, cur: newCursorWorld(false, tc.wired, 31), ref: newCursorWorld(true, tc.wired, 31)}
			rng := rand.New(rand.NewSource(30))
			word := vmm.DefaultCosts().WordAccess
			epoch := uint32(1)
			var allocs, fulls, evictedHeaders int
			for i := 0; i < steps; i++ {
				// A random assigned superpage; a fresh one of a random
				// shape when there is none there, and now and then anyway.
				idx := -1
				if hw := d.ref.ss.HighWater(); hw > 0 {
					idx = rng.Intn(hw)
				}
				if idx < 0 || !d.ref.ss.Used(idx) || rng.Intn(12) == 0 {
					sh := shapes[rng.Intn(len(shapes))]
					idx = d.cur.ss.AcquireSuper(sh.class(), sh.t.Kind)
					if other := d.ref.ss.AcquireSuper(sh.class(), sh.t.Kind); other != idx {
						t.Fatalf("step %d: acquired superpage %d with the cursor, %d bit by bit", i, idx, other)
					}
					if idx < 0 {
						continue
					}
				}
				hdrPage := d.ref.ss.HeaderPage(idx)
				switch setup := rng.Intn(10); {
				case setup == 0:
					pg := hdrPage + mem.PageID(rng.Intn(mem.SuperPages))
					d.both(func(w *cursorWorld) { w.rejected[pg] = !w.rejected[pg] })
				case !tc.wired:
				case setup == 1:
					d.both(func(w *cursorWorld) {
						w.p.Relinquish([]mem.PageID{hdrPage})
						w.squeeze()
					})
					if d.ref.p.State(hdrPage) == vmm.Evicted {
						evictedHeaders++
					}
				case setup < 5:
					delay := time.Duration(rng.Intn(1100)) * word
					d.both(func(w *cursorWorld) { w.armEvent(w.clock.Now()+delay, idx) })
				}

				op, pick := rng.Intn(10), rng.Uint64()
				got, want := d.cur.do(op, idx, shapes, pick, epoch), d.ref.do(op, idx, shapes, pick, epoch)
				ctx := fmt.Sprintf("step %d (op %d on superpage %d)", i, op, idx)
				if got != want {
					t.Fatalf("%s: result %#x with the cursor, %#x bit by bit", ctx, got, want)
				}
				d.compare(ctx)
				switch {
				case op == 0:
					fulls++
				case op < 6 && want != 0:
					allocs++
				case op == 9:
					epoch++
				}
			}
			if allocs == 0 || fulls == 0 {
				t.Fatalf("%d single allocations and %d fills: want both", allocs, fulls)
			}
			if tc.wired {
				st := d.ref.p.Stats()
				if evictedHeaders == 0 || st.MajorFaults == 0 || st.ProtFaults == 0 || len(d.ref.log) == 0 {
					t.Fatalf("the sequence missed a case: %d header evictions, %d events, %+v", evictedHeaders, len(d.ref.log), st)
				}
			}
		})
	}
}
