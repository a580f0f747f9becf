package mem

import "testing"

// FuzzArenaRecycle drives a Space's page bodies through arbitrary
// materialize / write / ForgetPages sequences and checks the pool
// invariants the hot path depends on: a forgotten range reads zero while
// the Space's other pages keep their words, recycled bodies come back
// zeroed, and data written to one page never leaks into another page's
// body through reuse — within the Space, to another live Space that
// takes the forgotten bodies at once, or to the next Space once it is
// released.
//
// An op with the high bit clear writes page 1+(op&0x7f)%31; one with it
// set forgets the 1+(op>>5&3) pages from 1+(op&0x1f)%31 (cut at the
// Space's end).
func FuzzArenaRecycle(f *testing.F) {
	f.Add([]byte{0x01, 0x42, 0x81, 0x02})
	f.Add([]byte{0x05, 0x05, 0x85, 0x85, 0x05})
	f.Add([]byte{0xff, 0x00, 0x80, 0x7f, 0x01, 0x81})
	every := make([]byte, 31) // write every page: 31 bodies dirty
	for i := range every {
		every[i] = byte(i + 1)
	}
	f.Add(every)
	f.Add([]byte{0x01, 0x02, 0x03, 0x04, 0x05, 0xe1, 0x02}) // forget pages 2..5, then write 3 again
	f.Fuzz(func(t *testing.T, ops []byte) {
		const npages, maxRun = 32, 4
		s := testSpace(npages * PageSize)
		other := testSpace((1 + maxRun) * PageSize) // a live sibling sharing the pool
		live := map[PageID]uint64{}                 // expected first-word value per materialized page
		for i, op := range ops {
			if op&0x80 == 0 {
				// Write a distinct word, materializing the page.
				p := PageID(1 + int(op&0x7f)%(npages-1))
				v := uint64(i)<<8 | uint64(p)
				s.WriteWord(PageAddr(p), v)
				live[p] = v
				continue
			}
			// Forget a run of pages. It must read zero at once, and the
			// rest of the Space must keep its words.
			first := PageID(1 + int(op&0x1f)%(npages-1))
			end := min(first+PageID(1+op>>5&3), npages)
			s.ForgetPages(first, end)
			for p := first; p < end; p++ {
				delete(live, p)
				if s.HasBody(p) {
					t.Fatalf("op %d: forgotten page %d still holds a body", i, p)
				}
				if got := s.PeekWord(PageAddr(p)); got != 0 {
					t.Fatalf("op %d: forgotten page %d reads %#x", i, p, got)
				}
			}
			for p, v := range live {
				if got := s.PeekWord(PageAddr(p)); got != v {
					t.Fatalf("op %d: forgetting pages %d..%d changed page %d: %#x, want %#x", i, first, end-1, p, got, v)
				}
			}
			// The sibling takes as many bodies as were forgotten: the
			// most recently freed ones. Each must read zero, and what the
			// sibling scribbles over them must never reach s.
			for q := PageID(1); q <= end-first; q++ {
				b := other.materialize(q)
				for w, v := range b {
					if v != 0 {
						t.Fatalf("op %d: a body taken by another Space read dirty: word %d = %#x", i, w, v)
					}
					b[w] = ^uint64(0)
				}
			}
			other.ForgetPages(1, 1+end-first)
		}
		for p := PageID(1); p < npages; p++ {
			got := s.PeekWord(Addr(p) * PageSize)
			want := live[p] // zero for unmaterialized/recycled pages
			if got != want {
				t.Fatalf("page %d first word = %#x, want %#x", p, got, want)
			}
		}
		// Every recycled body must be reusable: materialize all pages
		// and verify they come back zeroed (stale bodies are cleared).
		for p := PageID(1); p < npages; p++ {
			if _, ok := live[p]; ok {
				continue
			}
			for w, v := range s.materialize(p) {
				if v != 0 {
					t.Fatalf("recycled page %d materialized dirty: word %d = %#x", p, w, v)
				}
			}
		}
		// A released Space's bodies go to the next Space, which must see
		// every page it materializes read zero.
		s.Release()
		other.Release()
		next := testSpace(npages * PageSize)
		for p := PageID(1); p < npages; p++ {
			for i, w := range next.materialize(p) {
				if w != 0 {
					t.Fatalf("page %d of the next Space materialized dirty: word %d = %#x", p, i, w)
				}
			}
		}
		next.Release()
	})
}
