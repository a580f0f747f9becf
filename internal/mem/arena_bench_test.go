package mem

import (
	"math/bits"
	"testing"
	"time"
)

// BenchmarkArenaAllocFree cycles page bodies through materialize and
// ForgetPages — the allocate/discard churn of a collector that returns
// empty pages to the VM. Steady state must recycle bodies through the
// process-wide pool without mapping new ones.
func BenchmarkArenaAllocFree(b *testing.B) {
	const npages = 256
	s := testSpace(npages * PageSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := PageID(1 + i%(npages-1))
		s.materialize(p)
		s.ForgetPages(p, p+1)
	}
}

// BenchmarkBitmapWordScan measures the primitive BC's aggressive discard
// rides on: take one word of the residency bitmap and visit its set bits
// in ascending order (§3.4.3).
func BenchmarkBitmapWordScan(b *testing.B) {
	bm := NewBitmap(1 << 16)
	for i := 0; i < bm.Len(); i += 3 {
		bm.Set(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sum int
	for i := 0; i < b.N; i++ {
		wi := i % bm.Words()
		for w := bm.Word(wi); w != 0; w &= w - 1 {
			sum += wi<<6 + bits.TrailingZeros64(w)
		}
	}
	_ = sum
}

// BenchmarkBitmapIntersectScan measures the eviction handler's miss
// path: intersect three bitmaps over one index space a word at a time
// (resident &^ evicted & empty, one empty set a bitmap and one a range)
// across a 55-word address space — a bc-pressure heap — and find nothing.
func BenchmarkBitmapIntersectScan(b *testing.B) {
	const words, tail = 55, 50 * 64 // no page from tail on is resident
	resident, evicted, empty := NewBitmap(words*64), NewBitmap(words*64), NewBitmap(words*64)
	for i := 0; i < tail; i++ {
		switch i % 6 {
		case 0:
			resident.Set(i)
		case 1:
			resident.Set(i)
			evicted.Set(i)
			empty.Set(i)
		case 2:
			empty.Set(i)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	found := 0
	for i := 0; i < b.N; i++ {
		for wi := 0; wi < words; wi++ {
			if w := resident.Word(wi) &^ evicted.Word(wi); w != 0 && w&(empty.Word(wi)|RangeWord(wi, tail, words*64)) != 0 {
				found++
			}
		}
	}
	if found != 0 {
		b.Fatalf("intersection found %d non-empty words, want 0", found)
	}
}

// benchFT is a no-op fault toucher; the fast path must never call it in
// these benchmarks (every accessed page is resident and unprotected).
type benchFT struct{ faults int }

func (f *benchFT) FaultTouch(p PageID, write bool) { f.faults++ }

// benchSpace returns a space wired for the inline fast path with every
// page resident and no clock event scheduled.
func benchSpace(npages int) (*Space, *benchFT) {
	ft := &benchFT{}
	s := NewSpace(uint64(npages)*PageSize, NewClock(), 100*time.Nanosecond, ft)
	flags := s.PageFlags()
	for p := 1; p < npages; p++ {
		flags[p] = PFResident
		s.materialize(PageID(p))
	}
	return s, ft
}

// BenchmarkReadWordFast measures the resident-page word-read fast path:
// clock charge, referenced-bit update, and the body load.
func BenchmarkReadWordFast(b *testing.B) {
	const npages = 64
	s, ft := benchSpace(npages)
	b.ReportAllocs()
	b.ResetTimer()
	var sum uint64
	for i := 0; i < b.N; i++ {
		p := Addr(1 + uint64(i)%(npages-1))
		sum += s.ReadWord(p*PageSize + Addr(uint64(i)%WordsPage)*WordSize)
	}
	b.StopTimer()
	_ = sum
	if ft.faults != 0 {
		b.Fatalf("fast-path benchmark took %d faults", ft.faults)
	}
}

// BenchmarkReadWordPairFast measures the batched header-decode read.
func BenchmarkReadWordPairFast(b *testing.B) {
	const npages = 64
	s, ft := benchSpace(npages)
	b.ReportAllocs()
	b.ResetTimer()
	var sum uint64
	for i := 0; i < b.N; i++ {
		p := Addr(1 + uint64(i)%(npages-1))
		v1, v2 := s.ReadWordPair(p*PageSize + Addr(uint64(i)%WordsPage)*WordSize)
		sum += v1 + v2
	}
	b.StopTimer()
	_ = sum
	if ft.faults != 0 {
		b.Fatalf("fast-path benchmark took %d faults", ft.faults)
	}
}

// BenchmarkReadWindow measures a full bitmap-word scan through the window
// primitive: open a 64-read window and charge all of it — what 64 calls
// of BenchmarkReadWordFast's body cost one at a time.
func BenchmarkReadWindow(b *testing.B) {
	const npages = 64
	s, ft := benchSpace(npages)
	b.ReportAllocs()
	b.ResetTimer()
	var sum uint64
	for i := 0; i < b.N; i++ {
		p := Addr(1 + uint64(i)%(npages-1))
		a := p*PageSize + Addr(uint64(i)%WordsPage)*WordSize
		body, ok := s.OpenWindow(a, 64)
		if !ok {
			b.Fatal("window refused on a resident page with no event scheduled")
		}
		s.ChargeReads(63)
		sum += BodyWord(body, a)
	}
	b.StopTimer()
	_ = sum
	if ft.faults != 0 {
		b.Fatalf("fast-path benchmark took %d faults", ft.faults)
	}
	if want := time.Duration(b.N) * 64 * s.wordCost; s.clock.Now() != want {
		b.Fatalf("clock at %v after %d windows of 64 reads, want %v", s.clock.Now(), b.N, want)
	}
}
