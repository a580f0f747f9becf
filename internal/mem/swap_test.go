package mem

import (
	"fmt"
	"testing"
)

// Page densities the swap tests write: nonzero words on a page.
const (
	denseWords = maxRecordWords - mapWords + 1 // one word past a 2 KB record
	fleetWords = WordsPage * 18 / 100          // fleet's evicted pages: 18% nonzero
)

var swapDensities = []int{0, 1, fleetWords, denseWords}

// fillPage writes n nonzero words on page p of s (and of want, the
// test's copy) after forgetting the page, each a value that names the
// Space, the page and the step, at n distinct word indexes from start
// in strides of an odd step.
func fillPage(s *Space, want []uint64, id int, p PageID, n, start, step int) {
	s.ForgetPages(p, p+1)
	clear(want)
	stride := 2*step + 1
	for j := 0; j < n; j++ {
		i := (start + j*stride) % WordsPage
		v := uint64(step+1)<<32 | uint64(id)<<24 | uint64(p)<<12 | uint64(i)
		s.PokeWord(PageAddr(p)+Addr(i)*WordSize, v)
		want[i] = v
	}
}

// countNonzero counts the nonzero words of a page.
func countNonzero(words []uint64) int {
	n := 0
	for _, w := range words {
		if w != 0 {
			n++
		}
	}
	return n
}

// checkPage compares every word of page p with want, and what the page
// holds with what SwapOut promises: a record exactly when it has a
// nonzero word and at most fit of them.
func checkPage(s *Space, want []uint64, p PageID) error {
	for i, w := range want {
		if got := s.PeekWord(PageAddr(p) + Addr(i)*WordSize); got != w {
			return fmt.Errorf("page %d word %d reads %#x, want %#x", p, i, got, w)
		}
	}
	if s.HasBody(p) && s.HasRecord(p) {
		return fmt.Errorf("page %d holds a body and a record", p)
	}
	if n := countNonzero(want); s.HasRecord(p) && (n == 0 || mapWords+n > maxRecordWords) {
		return fmt.Errorf("page %d holds a record of %d nonzero words", p, n)
	}
	return nil
}

// storeHoldsNothing reports a slab that still holds a body, or a slot
// class with an open slab, once no page of s holds a record.
func storeHoldsNothing(s *Space) error {
	for i, sl := range s.own.slabs {
		if sl.body != nil || sl.used != 0 {
			return fmt.Errorf("slab %d still holds a body (used %016b) with no record stored", i, sl.used)
		}
	}
	for c, open := range s.own.open {
		if len(open) != 0 {
			return fmt.Errorf("class %d has %d open slabs with no record stored", c, len(open))
		}
	}
	return nil
}

// FuzzSwapRoundTrip drives three Spaces sharing the pool through
// arbitrary fill / SwapOut / SwapIn / Peek / Poke / ForgetPages /
// Release sequences, with pages of every density: empty, one word,
// fleet's 18% and too dense for a 2 KB record. Every word must read
// back as last written, whether the page holds a body or a record; a
// page holds a record only when SwapOut stores one; and once no page
// holds a record, every slab body is back in the pool, as is every body
// once the Spaces are released.
//
// Ops are byte pairs (op, arg). op&7 picks the kind, (op>>3&3)%3 the Space,
// and arg the page 1+arg%(npages-1): 0 fills the page at density op>>5&3,
// 1 swaps it out, 2 swaps it in, 3 checks the whole Space, 4 pokes word
// arg*op (zero when op>>5 is 0), 5 forgets 1+op>>5&3 pages from it, 6
// releases the Space for a new one, 7 peeks word arg*op.
func FuzzSwapRoundTrip(f *testing.F) {
	f.Add([]byte{0x40, 1, 0x01, 1, 0x02, 1}) // 18% page out and in
	f.Add([]byte{0x60, 2, 0x01, 2, 0x07, 2, 0x24, 2, 0x02, 2})
	f.Add([]byte{0x20, 3, 0x01, 3, 0x05, 3, 0x01, 3}) // one word out, forgotten
	f.Add([]byte{0x00, 4, 0x01, 4, 0x02, 4})          // empty page: neither body nor record
	f.Add([]byte{0x40, 1, 0x48, 1, 0x50, 1, 0x01, 1, 0x09, 1, 0x11, 1, 0x06, 0, 0x03, 0, 0x0b, 0})
	every := []byte{}
	for p := byte(1); p < 20; p++ { // many records: slabs of every class fill up
		every = append(every, 0x20*(p%4), p, 0x01, p)
	}
	f.Add(append(every, 0x03, 0, 0x25, 5, 0x02, 6, 0x06, 0))
	f.Fuzz(func(t *testing.T, ops []byte) {
		const nspaces, npages = 3, 24
		held := outstandingBodies()
		spaces := make([]*Space, nspaces)
		want := make([][][]uint64, nspaces)
		fresh := func(i int) {
			spaces[i] = testSpace(npages * PageSize)
			want[i] = make([][]uint64, npages)
			for p := range want[i] {
				want[i][p] = make([]uint64, WordsPage)
			}
		}
		for i := range spaces {
			fresh(i)
		}
		check := func(step int, i int, p PageID) {
			t.Helper()
			if err := checkPage(spaces[i], want[i][p], p); err != nil {
				t.Fatalf("op %d, Space %d: %v", step, i, err)
			}
		}
		for step := 0; step+1 < len(ops); step += 2 {
			op, arg := ops[step], int(ops[step+1])
			i, p := int(op>>3&3)%nspaces, PageID(1+arg%(npages-1))
			s, w := spaces[i], want[i]
			switch op & 7 {
			case 0:
				fillPage(s, w[p], i, p, swapDensities[op>>5&3], arg, step)
			case 1:
				s.SwapOut(p)
				n := countNonzero(w[p])
				dense := mapWords+n > maxRecordWords
				if s.HasRecord(p) != (n > 0 && !dense) || s.HasBody(p) != dense {
					t.Fatalf("op %d: page %d of %d nonzero words swapped out: record %v, body %v",
						step, p, n, s.HasRecord(p), s.HasBody(p))
				}
			case 2:
				had := s.HasRecord(p)
				s.SwapIn(p)
				if s.HasRecord(p) || had && !s.HasBody(p) {
					t.Fatalf("op %d: page %d swapped in: record %v, body %v", step, p, s.HasRecord(p), s.HasBody(p))
				}
			case 3:
				for q := PageID(1); q < npages; q++ {
					check(step, i, q)
				}
			case 4:
				wi := arg * int(op) % WordsPage
				v := uint64(0)
				if op>>5 != 0 {
					v = uint64(step+1)<<32 | uint64(wi)
				}
				s.PokeWord(PageAddr(p)+Addr(wi)*WordSize, v)
				w[p][wi] = v
			case 5:
				end := min(p+1+PageID(op>>5&3), npages)
				s.ForgetPages(p, end)
				for q := p; q < end; q++ {
					clear(w[q])
					if s.HasBody(q) || s.HasRecord(q) {
						t.Fatalf("op %d: forgotten page %d holds a body (%v) or a record (%v)", step, q, s.HasBody(q), s.HasRecord(q))
					}
				}
			case 6:
				s.Release()
				fresh(i)
			case 7:
				wi := arg * int(op) % WordsPage
				if got := s.PeekWord(PageAddr(p) + Addr(wi)*WordSize); got != w[p][wi] {
					t.Fatalf("op %d: page %d word %d peeks %#x, want %#x", step, p, wi, got, w[p][wi])
				}
			}
			check(step, i, p)
		}
		for i, s := range spaces {
			for p := PageID(1); p < npages; p++ {
				check(len(ops), i, p)
				s.SwapIn(p)
				check(len(ops), i, p)
			}
			if err := storeHoldsNothing(s); err != nil {
				t.Fatalf("Space %d, every page swapped in: %v", i, err)
			}
			for p := PageID(1); p < npages; p++ {
				s.SwapOut(p)
			}
			s.Release()
		}
		// Dropped Spaces' finalizers may return bodies meanwhile, which
		// only lowers the count.
		if got := outstandingBodies(); got > held {
			t.Fatalf("%d bodies outstanding after every Space was released, %d before", got, held)
		}
	})
}

// swapSpace returns a Space whose pages 1..npages-1 hold n nonzero words
// each.
func swapSpace(npages, n int) *Space {
	s := testSpace(uint64(npages) * PageSize)
	for p := PageID(1); p < PageID(npages); p++ {
		fillPage(s, make([]uint64, WordsPage), 0, p, n, int(p), int(p))
	}
	return s
}

// TestSwapDoesNotAllocate: once a Space's record store and its tables
// have grown, swapping pages out and in allocates nothing on the host,
// at every density.
func TestSwapDoesNotAllocate(t *testing.T) {
	const npages = 64
	for _, n := range swapDensities {
		s := swapSpace(npages, n)
		cycle := func() {
			for p := PageID(1); p < npages; p++ {
				s.SwapOut(p)
			}
			for p := PageID(1); p < npages; p++ {
				s.SwapIn(p)
			}
		}
		cycle()
		if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
			t.Errorf("%d nonzero words a page: %v allocations per swap cycle of %d pages", n, allocs, npages-1)
		}
		s.Release()
	}
}

// BenchmarkSwapOutIn measures one eviction and reload of a page at
// fleet's density (18% of its words nonzero): the map and pack into a
// 1 KB slot, and the unpack into a fresh body.
func BenchmarkSwapOutIn(b *testing.B) {
	const npages = 64
	s := swapSpace(npages, fleetWords)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := PageID(1 + i%(npages-1))
		s.SwapOut(p)
		s.SwapIn(p)
	}
	b.StopTimer()
	if !s.HasBody(1) || s.HasRecord(1) {
		b.Fatal("page 1 did not come back to a body")
	}
	s.Release()
}
