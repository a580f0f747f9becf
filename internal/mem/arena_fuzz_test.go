package mem

import "testing"

// FuzzArenaRecycle drives a Space's page bodies through arbitrary
// materialize / write / ZeroPageRaw sequences and checks the arena
// invariants the hot path depends on: recycled bodies come back zeroed,
// the handle table and body table stay in sync, and data written to one
// page never leaks into another page's body through free-list reuse —
// within the Space, or across Spaces once it is released and its slabs
// go to the next one.
func FuzzArenaRecycle(f *testing.F) {
	f.Add([]byte{0x01, 0x42, 0x81, 0x02})
	f.Add([]byte{0x05, 0x05, 0x85, 0x85, 0x05})
	f.Add([]byte{0xff, 0x00, 0x80, 0x7f, 0x01, 0x81})
	every := make([]byte, 31) // write every page: a whole slab prefix dirty
	for i := range every {
		every[i] = byte(i + 1)
	}
	f.Add(every)
	f.Fuzz(func(t *testing.T, ops []byte) {
		const npages = 32
		s := testSpace(npages * PageSize)
		live := map[PageID]uint64{} // expected first-word value per materialized page
		for i, op := range ops {
			p := PageID(1 + int(op&0x7f)%(npages-1))
			a := Addr(p) * PageSize
			if op&0x80 == 0 {
				// Write a distinct word, materializing the page.
				v := uint64(i)<<8 | uint64(p)
				s.WriteWord(a, v)
				live[p] = v
			} else {
				// Recycle the page's body through the free list.
				s.ZeroPageRaw(p)
				delete(live, p)
			}
		}
		for p := PageID(1); p < npages; p++ {
			got := s.PeekWord(Addr(p) * PageSize)
			want := live[p] // zero for unmaterialized/recycled pages
			if got != want {
				t.Fatalf("page %d first word = %#x, want %#x", p, got, want)
			}
		}
		// Every recycled handle must be reusable: materialize all pages
		// and verify they come back zeroed (stale bodies are cleared).
		for p := PageID(1); p < npages; p++ {
			if _, ok := live[p]; ok {
				continue
			}
			s.materialize(p)
			if got := s.PeekWord(Addr(p) * PageSize); got != 0 {
				t.Fatalf("recycled page %d materialized dirty: first word %#x", p, got)
			}
		}
		// A released Space's slabs go to the next Space, which must see
		// every page it materializes read zero.
		s.Release()
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
