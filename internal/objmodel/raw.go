package objmodel

import "bookmarkgc/internal/mem"

// Raw header access for the mark engine (internal/gc): the same
// status-word encoding as objmodel.go, read and written through
// PeekWord and PokeWord so no access advances the simulated clock. The
// engine accounts for these accesses itself and replays them against
// the Space in canonical order.

// MarkRaw marks o in epoch, preserving the bookmark, forwarded, and
// forwarding-address bits. It reports whether o was unmarked.
func MarkRaw(s *mem.Space, o Ref, epoch uint32) bool {
	w := s.PeekWord(o)
	if uint32(w>>epochShift)&uint32(epochMask) == epoch {
		return false
	}
	s.PokeWord(o, (w&^(epochMask<<epochShift))|uint64(epoch&uint32(epochMask))<<epochShift)
	return true
}

// TypeOfRaw decodes o's type descriptor and array length from header
// word 1.
func TypeOfRaw(s *mem.Space, tb *Table, o Ref) (*Type, int) {
	w := s.PeekWord(o + mem.WordSize)
	return tb.Get(int32(uint32(w))), int(uint32(w >> 32))
}
