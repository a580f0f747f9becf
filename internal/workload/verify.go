package workload

import (
	"math/bits"

	"bookmarkgc/internal/mutator"
)

// Stats summarizes one full scan of a trace — Verify's output, printed
// by gctrace stat.
type Stats struct {
	Meta   Meta
	Events uint64
	Blocks uint64
	Steps  uint64

	Allocs    uint64
	Bytes     uint64
	Nodes     uint64
	DataArrs  uint64
	RefArrs   uint64
	Temps     uint64 // allocations no root ever held
	Survivors uint64 // allocations stored into a root slot

	FreeHints  uint64
	Releases   uint64
	RootNils   uint64
	Links      uint64
	LinkNops   uint64
	WorkReads  uint64
	WorkWrites uint64

	// PeakLive is the most objects simultaneously live (by free hints;
	// objects never hinted dead count as live to the end).
	PeakLive uint64
	// LifetimeP50/P90 are object lifetimes in allocations survived, from
	// power-of-two buckets (so values are bucket lower bounds).
	LifetimeP50 uint64
	LifetimeP90 uint64

	Footer Footer
}

// vslot is Verify's model of one root slot.
type vslot struct {
	inUse  bool
	hasObj bool
	shape  mutator.Shape
	id     uint64
}

// vmodel mirrors gc.Roots' LIFO free-list discipline exactly, which is
// what lets Verify predict — and check — every slot index a replay
// would observe, without instantiating a collector.
type vmodel struct {
	slots []vslot
	free  []int
}

func (m *vmodel) add() int {
	if n := len(m.free); n > 0 {
		i := m.free[n-1]
		m.free = m.free[:n-1]
		m.slots[i] = vslot{inUse: true}
		return i
	}
	m.slots = append(m.slots, vslot{inUse: true})
	return len(m.slots) - 1
}

func (m *vmodel) release(i int) {
	m.slots[i] = vslot{}
	m.free = append(m.free, i)
}

func (m *vmodel) get(i int) (*vslot, bool) {
	if i < 0 || i >= len(m.slots) || !m.slots[i].inUse {
		return nil, false
	}
	return &m.slots[i], true
}

// The shape checks Verify and the Replayer share. Each reports why an
// event could not come from a run, reading the rules from
// mutator.Shape.

// allocErr checks an allocation's shape and its init write.
func allocErr(ev *event) error {
	if !ev.shape.Valid() {
		return corrupt("allocation of a %v", ev.shape)
	}
	if ev.hasInit && !ev.shape.InitOK(ev.initIdx) {
		return corrupt("init write at %d invalid for a %v", ev.initIdx, ev.shape)
	}
	return nil
}

// badWork reports a work read or write at word idx of an object of
// shape sh that Shape.WorkOK refuses.
func badWork(sh mutator.Shape, access string, idx int) error {
	return corrupt("work %s at %d invalid for a %v", access, idx, sh)
}

// linkErr checks a link or link-nop from a source of shape sh: a link
// stores into one of its reference slots, and a link-nop is the header
// read of a source that has none.
func linkErr(ev *event, sh mutator.Shape) error {
	switch n := sh.RefSlots(); {
	case ev.op == opLink && ev.refIdx >= n:
		return corrupt("link into ref slot %d of %d", ev.refIdx, n)
	case ev.op == opLinkNop && n != 0:
		return corrupt("link-nop from a %v, which has reference slots", sh)
	}
	return nil
}

// Verify scans rd to the end, checking every structural invariant a
// replay depends on — root-slot discipline against the LIFO free-list
// model, index bounds against tracked object shapes, object-ID sanity
// of free hints, footer totals, and nothing after the footer — and
// returns the trace's statistics. It shares the Reader's decode layer,
// so everything the fuzzer throws at the format funnels through here
// without a collector in sight.
func Verify(rd *Reader) (*Stats, error) {
	st := &Stats{Meta: rd.Meta()}
	var model vmodel
	var nextID uint64 = 1
	alive := make(map[uint64]uint64) // object ID -> allocation ordinal
	var lifeHist [65]uint64
	perKind := [...]*uint64{mutator.AllocNode: &st.Nodes, mutator.AllocDataArr: &st.DataArrs, mutator.AllocRefArr: &st.RefArrs}

	var ev event
	for {
		if err := rd.next(&ev); err != nil {
			return st, err
		}
		if ev.op == opEnd {
			st.Footer = ev.footer
			if ev.footer.Allocs != st.Allocs || ev.footer.Bytes != st.Bytes {
				return st, corrupt("footer totals (%d allocs, %d bytes) disagree with stream (%d, %d)",
					ev.footer.Allocs, ev.footer.Bytes, st.Allocs, st.Bytes)
			}
			if err := rd.expectEOF(); err != nil {
				return st, err
			}
			st.Events = rd.Events()
			st.Blocks = rd.Blocks()
			st.LifetimeP50 = lifePercentile(lifeHist[:], 50)
			st.LifetimeP90 = lifePercentile(lifeHist[:], 90)
			return st, nil
		}
		switch ev.op {
		case opAlloc:
			if err := allocErr(&ev); err != nil {
				return st, err
			}
			(*perKind[ev.shape.Kind])++
			id := nextID
			nextID++
			alive[id] = st.Allocs
			st.Allocs++
			st.Bytes += uint64(ev.shape.Bytes())
			if n := uint64(len(alive)); n > st.PeakLive {
				st.PeakLive = n
			}
			switch ev.dest {
			case destNone:
				st.Temps++
			case destAdd:
				if s := model.add(); s != ev.destSlot {
					return st, corrupt("root add landed in slot %d, trace says %d", s, ev.destSlot)
				}
				sl, _ := model.get(ev.destSlot)
				*sl = vslot{inUse: true, hasObj: true, shape: ev.shape, id: id}
				st.Survivors++
			case destSet:
				sl, ok := model.get(ev.destSlot)
				if !ok {
					return st, corrupt("root set into unknown slot %d", ev.destSlot)
				}
				*sl = vslot{inUse: true, hasObj: true, shape: ev.shape, id: id}
				st.Survivors++
			}
		case opWorkR, opWorkRW:
			sl, ok := model.get(ev.slot)
			if !ok || !sl.hasObj {
				return st, corrupt("work on empty root slot %d", ev.slot)
			}
			if !sl.shape.WorkOK(ev.readIdx) {
				return st, badWork(sl.shape, "read", ev.readIdx)
			}
			st.WorkReads++
			if ev.op == opWorkRW {
				if !sl.shape.WorkOK(ev.writeIdx) {
					return st, badWork(sl.shape, "write", ev.writeIdx)
				}
				st.WorkWrites++
			}
		case opLink, opLinkNop:
			src, ok := model.get(ev.srcSlot)
			if !ok || !src.hasObj {
				return st, corrupt("link from empty root slot %d", ev.srcSlot)
			}
			// A link-nop stores nothing, so its destination may be empty.
			if dst, ok := model.get(ev.dstSlot); !ok || ev.op == opLink && !dst.hasObj {
				return st, corrupt("link to empty root slot %d", ev.dstSlot)
			}
			if err := linkErr(&ev, src.shape); err != nil {
				return st, err
			}
			if ev.op == opLink {
				st.Links++
			} else {
				st.LinkNops++
			}
		case opStepEnd:
			st.Steps++
		case opFree:
			born, ok := alive[ev.objID]
			if !ok {
				return st, corrupt("free hint for unknown or dead object %d", ev.objID)
			}
			delete(alive, ev.objID)
			lifeHist[bits.Len64(st.Allocs-born)]++
			st.FreeHints++
		case opRelease:
			if _, ok := model.get(ev.slot); !ok {
				return st, corrupt("release of unknown slot %d", ev.slot)
			}
			model.release(ev.slot)
			st.Releases++
		case opRootNil:
			if s := model.add(); s != ev.slot {
				return st, corrupt("root add landed in slot %d, trace says %d", s, ev.slot)
			}
			st.RootNils++
		}
	}
}

// lifePercentile returns the lower bound (in allocations survived) of
// the bucket holding the pth percentile.
func lifePercentile(hist []uint64, p int) uint64 {
	var total uint64
	for _, n := range hist {
		total += n
	}
	if total == 0 {
		return 0
	}
	want := (total*uint64(p) + 99) / 100
	var cum uint64
	for b, n := range hist {
		cum += n
		if cum >= want {
			if b == 0 {
				return 0
			}
			return uint64(1) << (b - 1)
		}
	}
	return uint64(1) << (len(hist) - 1)
}
