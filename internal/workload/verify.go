package workload

import (
	"math/bits"

	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/mutator"
	"bookmarkgc/internal/objmodel"
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
	kind   byte
	words  int
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

// refSlotsOf mirrors Type.NumRefSlots for the three workload types.
func refSlotsOf(kind byte, words int) int {
	switch kind {
	case mutator.AllocNode:
		return 2
	case mutator.AllocRefArr:
		return words
	}
	return 0
}

// dataIdxOK reports whether idx is an index the generator could have
// produced for a data access to an object of this shape (node data
// words live at 2..3; pointer-free arrays anywhere; reference arrays
// only at 0, mirroring dataIndexOf).
func dataIdxOK(kind byte, words, idx int) bool {
	switch kind {
	case mutator.AllocNode:
		return idx == 2 || idx == 3
	case mutator.AllocRefArr:
		return idx == 0
	}
	return idx >= 0 && idx < words
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
			switch ev.kind {
			case mutator.AllocNode:
				if ev.words != 4 {
					return st, corrupt("node allocation of %d words", ev.words)
				}
				st.Nodes++
			case mutator.AllocDataArr:
				if ev.words < 1 {
					return st, corrupt("empty data array allocation")
				}
				st.DataArrs++
			case mutator.AllocRefArr:
				if ev.words < 1 {
					return st, corrupt("empty reference array allocation")
				}
				if ev.hasInit {
					return st, corrupt("data init on a reference array")
				}
				st.RefArrs++
			}
			if ev.hasInit && !dataIdxOK(ev.kind, ev.words, ev.initIdx) {
				return st, corrupt("init write at %d invalid for kind %d, %d words",
					ev.initIdx, ev.kind, ev.words)
			}
			id := nextID
			nextID++
			alive[id] = st.Allocs
			st.Allocs++
			st.Bytes += uint64(objmodel.HeaderBytes + ev.words*mem.WordSize)
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
				*sl = vslot{inUse: true, hasObj: true, kind: ev.kind, words: ev.words, id: id}
				st.Survivors++
			case destSet:
				sl, ok := model.get(ev.destSlot)
				if !ok {
					return st, corrupt("root set into unknown slot %d", ev.destSlot)
				}
				*sl = vslot{inUse: true, hasObj: true, kind: ev.kind, words: ev.words, id: id}
				st.Survivors++
			}
		case opWorkR, opWorkRW:
			sl, ok := model.get(ev.slot)
			if !ok || !sl.hasObj {
				return st, corrupt("work on empty root slot %d", ev.slot)
			}
			if !dataIdxOK(sl.kind, sl.words, ev.readIdx) {
				return st, corrupt("work read at %d invalid for slot %d", ev.readIdx, ev.slot)
			}
			st.WorkReads++
			if ev.op == opWorkRW {
				if !dataIdxOK(sl.kind, sl.words, ev.writeIdx) {
					return st, corrupt("work write at %d invalid for slot %d", ev.writeIdx, ev.slot)
				}
				st.WorkWrites++
			}
		case opLink:
			src, ok := model.get(ev.srcSlot)
			if !ok || !src.hasObj {
				return st, corrupt("link from empty root slot %d", ev.srcSlot)
			}
			if dst, ok := model.get(ev.dstSlot); !ok || !dst.hasObj {
				return st, corrupt("link to empty root slot %d", ev.dstSlot)
			}
			if n := refSlotsOf(src.kind, src.words); ev.refIdx >= n {
				return st, corrupt("link into ref slot %d of %d", ev.refIdx, n)
			}
			st.Links++
		case opLinkNop:
			src, ok := model.get(ev.srcSlot)
			if !ok || !src.hasObj {
				return st, corrupt("link from empty root slot %d", ev.srcSlot)
			}
			if _, ok := model.get(ev.dstSlot); !ok {
				return st, corrupt("link to unknown root slot %d", ev.dstSlot)
			}
			if refSlotsOf(src.kind, src.words) != 0 {
				return st, corrupt("link-nop from a source with reference slots")
			}
			st.LinkNops++
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
