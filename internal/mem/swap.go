package mem

import (
	"math/bits"
	"slices"
	"unsafe"
)

// Evicted pages keep only their nonzero words (DESIGN.md §15). SwapOut
// replaces a page's body with a record — a map of the page's nonzero
// words, one bit per word, followed by those words in address order —
// and gives the body back to the pool; SwapIn copies the record back
// into a fresh body. A record lives in a slot of a slab: a body the
// Space takes from the same pool and cuts into slots of one size class.
// A page whose record would not fit the largest class keeps its body.
const (
	mapWords       = WordsPage / 64 // the record's map of nonzero words
	minSlotWords   = 32             // 256 B, the smallest slot class
	slotClasses    = 4              // 256 B, 512 B, 1 KB and 2 KB slots
	maxRecordWords = minSlotWords << (slotClasses - 1)
	slotBits       = 4            // a record handle's slot-in-slab bits: up to 16 slots
	recBlockPages  = PageSize / 4 // record table entries a pool body holds

	// The least capacity a store's tables grow to: 16 record table
	// blocks (a 64 MB Space) and 32 slabs, so that the stores passed
	// from Space to Space soon stop growing.
	minRecBlocks = 16
	minSlabs     = 32
)

// swapStore holds the records of one Space's swapped-out pages. It is
// part of the Space's owner, and goes with its tables' capacity to the
// next Space when the Space is released.
type swapStore struct {
	// rec is the record table, in blocks of recBlockPages pages, each a
	// pool body taken when a page of the block is first stored and kept
	// until the Space is released. A page's entry is 0, or 1 + the
	// handle of its record (its slab's index << slotBits | its slot).
	// It is empty until the Space's first SwapOut that stores a record.
	rec   []*[recBlockPages]int32
	slabs []swapSlab
	spare []int32              // indexes of slabs entries holding no body
	open  [slotClasses][]int32 // per class, the slabs with a free slot
}

// swapSlab is one slab: a pool body cut into slots of one class.
type swapSlab struct {
	body  *[WordsPage]uint64
	class uint8
	used  uint16 // bit k set: slot k holds a record
	at    int32  // position in open[class]; -1 while every slot is used
}

// slotWords returns the words of a slot of class c.
func slotWords(c uint8) int { return minSlotWords << c }

// slotClass returns the smallest class whose slot holds n words.
func slotClass(n int) uint8 { return uint8(bits.Len(uint(n-1) / minSlotWords)) }

// handle returns 1 + the handle of page p's record, or 0 when p has none.
func (st *swapStore) handle(p PageID) int32 {
	if blk := st.rec[p/recBlockPages]; blk != nil {
		return blk[p%recBlockPages]
	}
	return 0
}

// setHandle sets page p's record table entry to h.
func (st *swapStore) setHandle(p PageID, h int32) {
	blk := st.rec[p/recBlockPages]
	if blk == nil {
		blk = (*[recBlockPages]int32)(unsafe.Pointer(newBody()))
		st.rec[p/recBlockPages] = blk
	}
	blk[p%recBlockPages] = h
}

// record returns the slot of handle h.
func (st *swapStore) record(h int32) []uint64 {
	sl := &st.slabs[h>>slotBits]
	w := slotWords(sl.class)
	k := int(h & (1<<slotBits - 1))
	return sl.body[k*w : (k+1)*w]
}

// alloc takes a free slot of class c, taking a new slab from the pool
// when no slab of that class has one, and returns its handle.
func (st *swapStore) alloc(c uint8) int32 {
	if len(st.open[c]) == 0 {
		var i int32
		if n := len(st.spare); n > 0 {
			i, st.spare = st.spare[n-1], st.spare[:n-1]
		} else {
			i = int32(len(st.slabs))
			if len(st.slabs) == cap(st.slabs) {
				st.grow()
			}
			st.slabs = append(st.slabs, swapSlab{})
		}
		st.slabs[i] = swapSlab{body: newBody(), class: c, at: int32(len(st.open[c]))}
		st.open[c] = append(st.open[c], i)
	}
	open := st.open[c]
	i := open[len(open)-1]
	sl := &st.slabs[i]
	k := bits.TrailingZeros16(^sl.used)
	sl.used |= 1 << k
	if int(sl.used) == 1<<(WordsPage/slotWords(c))-1 {
		st.open[c] = open[:len(open)-1]
		sl.at = -1
	}
	return i<<slotBits | int32(k)
}

// grow doubles the store's slab capacity, and its lists' with it: no
// list holds more entries than there are slabs, so appending to one
// never allocates.
func (st *swapStore) grow() {
	n := max(2*cap(st.slabs), minSlabs)
	st.slabs = slices.Grow(st.slabs, n-len(st.slabs))
	st.spare = slices.Grow(st.spare, n-len(st.spare))
	for c := range st.open {
		st.open[c] = slices.Grow(st.open[c], n-len(st.open[c]))
	}
}

// free releases the slot of handle h, and gives its slab's body back to
// the pool once the slab holds no record.
func (st *swapStore) free(h int32) {
	i := h >> slotBits
	sl := &st.slabs[i]
	c := sl.class
	if sl.at < 0 {
		sl.at = int32(len(st.open[c]))
		st.open[c] = append(st.open[c], i)
	}
	sl.used &^= 1 << (h & (1<<slotBits - 1))
	if sl.used != 0 {
		return
	}
	open := st.open[c]
	last := open[len(open)-1]
	open[sl.at] = last
	st.slabs[last].at = sl.at
	st.open[c] = open[:len(open)-1]
	freeBodies.Put(sl.body)
	*sl = swapSlab{}
	st.spare = append(st.spare, i)
}

// release gives every slab body and record table block back to the
// pool and empties the store.
func (st *swapStore) release() {
	freeBodies.mu.Lock()
	for _, sl := range st.slabs {
		if sl.body != nil {
			freeBodies.items = append(freeBodies.items, sl.body)
		}
	}
	for _, blk := range st.rec {
		if blk != nil {
			freeBodies.items = append(freeBodies.items, (*[WordsPage]uint64)(unsafe.Pointer(blk)))
		}
	}
	freeBodies.mu.Unlock()
	clear(st.rec)
	st.rec, st.slabs, st.spare = st.rec[:0], st.slabs[:0], st.spare[:0]
	for c := range st.open {
		st.open[c] = st.open[c][:0]
	}
}

// store returns the Space's record store, sizing its record table at
// first use.
func (s *Space) store() *swapStore {
	st := &s.own.swapStore
	if len(st.rec) == 0 {
		n := (len(s.bodies) + recBlockPages - 1) / recBlockPages
		if cap(st.rec) < n {
			st.rec = make([]*[recBlockPages]int32, n, max(n, 2*cap(st.rec), minRecBlocks))
		}
		st.rec = st.rec[:n]
	}
	return st
}

// SwapOut replaces page p's body with a record of its nonzero words and
// gives the body back to the pool; an all-zero body goes back with no
// record, and a page whose record would exceed the largest slot keeps
// its body. It charges nothing and changes no page flag: the VMM calls
// it when it evicts p, and no fast path reads an evicted page's body.
func (s *Space) SwapOut(p PageID) {
	b := s.bodies[p]
	if b == nil {
		return
	}
	var m [mapWords]uint64
	n := 0
	for wi := range m {
		var mw uint64
		for i := 0; i < 64; i += 8 {
			ws := (*[8]uint64)(b[wi*64+i:])
			mw |= (nonzero(ws[0]) | nonzero(ws[1])<<1 | nonzero(ws[2])<<2 | nonzero(ws[3])<<3 |
				nonzero(ws[4])<<4 | nonzero(ws[5])<<5 | nonzero(ws[6])<<6 | nonzero(ws[7])<<7) << i
		}
		m[wi] = mw
		if n += bits.OnesCount64(mw); mapWords+n > maxRecordWords {
			return
		}
	}
	s.bodies[p] = nil
	if n > 0 {
		st := s.store()
		h := st.alloc(slotClass(mapWords + n))
		rec := st.record(h)
		copy(rec, m[:])
		j := mapWords
		for wi, mw := range m {
			for ; mw != 0; mw &= mw - 1 {
				rec[j] = b[wi<<6|bits.TrailingZeros64(mw)]
				j++
			}
		}
		st.setHandle(p, h+1)
	}
	freeBodies.Put(b)
}

// nonzero returns 1 when w is not zero and 0 when it is, branch-free:
// the zeros of an evicted page are too scattered for a branch to guess.
func nonzero(w uint64) uint64 { return (w | -w) >> 63 }

// SwapIn gives page p its body back from its record, if SwapOut stored
// one, and frees the record's slot. It charges nothing: the VMM calls it
// when p becomes resident.
func (s *Space) SwapIn(p PageID) { s.unpack(p) }

// unpack restores page p's record into a fresh body and returns it, or
// returns nil when p has no record.
func (s *Space) unpack(p PageID) *[WordsPage]uint64 {
	if !s.HasRecord(p) {
		return nil
	}
	st := &s.own.swapStore
	h := st.handle(p) - 1
	rec := st.record(h)
	b := s.materialize(p)
	j := mapWords
	for wi, mw := range rec[:mapWords] {
		for ; mw != 0; mw &= mw - 1 {
			b[wi<<6|bits.TrailingZeros64(mw)] = rec[j]
			j++
		}
	}
	st.setHandle(p, 0)
	st.free(h)
	return b
}

// recordWord returns the word at a from its page's record; a page with
// no record reads zero.
func (s *Space) recordWord(a Addr) uint64 {
	p := a.Page()
	if !s.HasRecord(p) {
		return 0
	}
	st := &s.own.swapStore
	rec := st.record(st.handle(p) - 1)
	i := uint64(a&(PageSize-1)) >> 3
	bit := uint64(1) << (i & 63)
	if rec[i>>6]&bit == 0 {
		return 0
	}
	j := mapWords + bits.OnesCount64(rec[i>>6]&(bit-1))
	for _, mw := range rec[:i>>6] {
		j += bits.OnesCount64(mw)
	}
	return rec[j]
}

// forgetRecords frees the records of pages [first, end).
func (s *Space) forgetRecords(first, end PageID) {
	st := &s.own.swapStore
	for p := first; p < end && len(st.rec) > 0; {
		next := min(end, (p/recBlockPages+1)*recBlockPages)
		if blk := st.rec[p/recBlockPages]; blk != nil {
			for ; p < next; p++ {
				if h := blk[p%recBlockPages]; h != 0 {
					blk[p%recBlockPages] = 0
					st.free(h - 1)
				}
			}
		}
		p = next
	}
}

// HasRecord reports whether page p's words are held as a record
// (SwapOut) rather than in a body. It charges nothing.
func (s *Space) HasRecord(p PageID) bool {
	return len(s.own.rec) > 0 && s.own.handle(p) != 0
}
