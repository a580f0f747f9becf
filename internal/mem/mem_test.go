package mem

import (
	"testing"
	"testing/quick"
	"time"
)

func TestGeometry(t *testing.T) {
	if WordsPage != 512 {
		t.Fatalf("WordsPage = %d, want 512", WordsPage)
	}
	if SuperSize != 16384 {
		t.Fatalf("SuperSize = %d, want 16384", SuperSize)
	}
	a := Addr(0x12345678)
	if a.Page() != PageID(0x12345) {
		t.Errorf("Page() = %#x, want 0x12345", a.Page())
	}
	if a.PageBase() != 0x12345000 {
		t.Errorf("PageBase() = %#x", a.PageBase())
	}
	if a.SuperBase() != 0x12344000 {
		t.Errorf("SuperBase() = %#x", a.SuperBase())
	}
	if PageAddr(3) != 3*PageSize {
		t.Errorf("PageAddr(3) = %#x", PageAddr(3))
	}
}

func TestSuperBaseAligned(t *testing.T) {
	// Property: SuperBase is idempotent, superpage-aligned, and <= a.
	f := func(raw uint32) bool {
		a := Addr(raw)
		b := a.SuperBase()
		return b%SuperSize == 0 && b <= a && b.SuperBase() == b && a-b < SuperSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPagesIn(t *testing.T) {
	f, l := PagesIn(PageSize-8, 16)
	if f != 0 || l != 1 {
		t.Errorf("PagesIn straddle: got %d..%d, want 0..1", f, l)
	}
	f, l = PagesIn(2*PageSize, PageSize)
	if f != 2 || l != 2 {
		t.Errorf("PagesIn exact page: got %d..%d, want 2..2", f, l)
	}
	f, l = PagesIn(0, 0)
	if f != 0 || l != 0 {
		t.Errorf("PagesIn empty: got %d..%d", f, l)
	}
}

func TestRounding(t *testing.T) {
	cases := []struct{ in, page, word uint64 }{
		{0, 0, 0},
		{1, PageSize, WordSize},
		{PageSize, PageSize, PageSize},
		{PageSize + 1, 2 * PageSize, PageSize + WordSize},
		{15, PageSize, 16},
	}
	for _, c := range cases {
		if got := RoundUpPage(c.in); got != c.page {
			t.Errorf("RoundUpPage(%d) = %d, want %d", c.in, got, c.page)
		}
		if got := RoundUpWord(c.in); got != c.word {
			t.Errorf("RoundUpWord(%d) = %d, want %d", c.in, got, c.word)
		}
	}
}

// recordToucher records every fault and services none, so each access to
// the space faults again.
type recordToucher struct {
	touches []PageID
	writes  []bool
}

func (r *recordToucher) FaultTouch(p PageID, w bool) {
	r.touches = append(r.touches, p)
	r.writes = append(r.writes, w)
}

// resident services a fault by making the page resident: the first
// access to a page takes the slow path, every later one the fast path.
type resident struct{ s *Space }

func (r *resident) FaultTouch(p PageID, _ bool) { r.s.flags[p] = PFResident }

func testSpace(size uint64) *Space {
	r := &resident{}
	r.s = NewSpace(size, NewClock(), time.Nanosecond, r)
	return r.s
}

func TestSpaceReadWrite(t *testing.T) {
	rec := &recordToucher{}
	s := NewSpace(4*PageSize, NewClock(), time.Nanosecond, rec)
	a := Addr(PageSize + 64)
	s.WriteWord(a, 0xdeadbeef)
	if got := s.ReadWord(a); got != 0xdeadbeef {
		t.Fatalf("ReadWord = %#x", got)
	}
	if len(rec.touches) != 2 || rec.touches[0] != 1 || rec.touches[1] != 1 {
		t.Fatalf("touches = %v", rec.touches)
	}
	if !rec.writes[0] || rec.writes[1] {
		t.Fatalf("writes = %v", rec.writes)
	}
}

func TestSpaceAddrHelpers(t *testing.T) {
	s := testSpace(2 * PageSize)
	a := Addr(PageSize)
	s.WriteAddr(a, 0x2008)
	if got := s.ReadAddr(a); got != 0x2008 {
		t.Fatalf("ReadAddr = %#x", got)
	}
	if got := s.PeekWord(a); got != 0x2008 {
		t.Fatalf("PeekWord = %#x", got)
	}
}

func TestSpaceZeroRange(t *testing.T) {
	s := testSpace(2 * PageSize)
	base := Addr(PageSize)
	for i := 0; i < 8; i++ {
		s.WriteWord(base+Addr(i*WordSize), 7)
	}
	s.ZeroRange(base+WordSize, 3*WordSize)
	want := []uint64{7, 0, 0, 0, 7, 7, 7, 7}
	for i, w := range want {
		if got := s.ReadWord(base + Addr(i*WordSize)); got != w {
			t.Errorf("word %d = %d, want %d", i, got, w)
		}
	}
}

func TestSpaceBadAccessPanics(t *testing.T) {
	s := testSpace(PageSize * 2)
	for name, a := range map[string]Addr{
		"unaligned":  PageSize + 1,
		"null page":  8,
		"out of rng": PageSize * 2,
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic for addr %#x", name, a)
				}
			}()
			s.ReadWord(a)
		}()
	}
}

func TestBitmapBasics(t *testing.T) {
	b := NewBitmap(130)
	if b.Count() != 0 {
		t.Fatal("new bitmap not empty")
	}
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if !b.Test(0) || !b.Test(64) || !b.Test(129) || b.Test(1) {
		t.Fatal("Test after Set wrong")
	}
	if b.Count() != 3 {
		t.Fatalf("Count = %d", b.Count())
	}
	b.Clear(64)
	if b.Test(64) || b.Count() != 2 {
		t.Fatal("Clear failed")
	}
}

func TestBitmapNextSetClear(t *testing.T) {
	b := NewBitmap(200)
	b.Set(5)
	b.Set(130)
	if got := b.NextSet(0); got != 5 {
		t.Errorf("NextSet(0) = %d", got)
	}
	if got := b.NextSet(6); got != 130 {
		t.Errorf("NextSet(6) = %d", got)
	}
	if got := b.NextSet(131); got != -1 {
		t.Errorf("NextSet(131) = %d", got)
	}
	b.Clear(5)
	if got := b.NextSet(0); got != 130 {
		t.Errorf("NextSet(0) after Clear(5) = %d", got)
	}
}

func TestBitmapWords(t *testing.T) {
	b := NewBitmap(200)
	for _, i := range []int{64, 65, 100, 127, 128, 199} {
		b.Set(i)
	}
	if b.Words() != 4 {
		t.Fatalf("Words = %d, want 4", b.Words())
	}
	want := []uint64{0, 1<<0 | 1<<1 | 1<<36 | 1<<63, 1 << 0, 1 << 7}
	for wi, w := range want {
		if got := b.Word(wi); got != w {
			t.Errorf("Word(%d) = %#x, want %#x", wi, got, w)
		}
	}
}

func TestRangeWord(t *testing.T) {
	// RangeWord(wi, from, to) must be Word(wi) of a bitmap holding
	// exactly [from, to), for ranges that start and end mid-word, span
	// whole words, are empty, or miss the word altogether.
	const n = 4 * 64
	for _, r := range [][2]int{{0, 0}, {0, 1}, {0, 64}, {0, n}, {5, 5}, {7, 3}, {63, 65}, {64, 128}, {70, 250}, {191, 192}, {n - 1, n}} {
		b := NewBitmap(n)
		for i := r[0]; i < r[1]; i++ {
			b.Set(i)
		}
		for wi := 0; wi < b.Words(); wi++ {
			if got, want := RangeWord(wi, r[0], r[1]), b.Word(wi); got != want {
				t.Errorf("RangeWord(%d, %d, %d) = %#x, want %#x", wi, r[0], r[1], got, want)
			}
		}
	}
}

func TestBitmapProperties(t *testing.T) {
	// Property: after setting a random subset, Count matches and NextSet
	// enumerates exactly the set, in order.
	f := func(seed []uint8) bool {
		b := NewBitmap(300)
		set := map[int]bool{}
		for _, s := range seed {
			i := int(s) % 300
			b.Set(i)
			set[i] = true
		}
		if b.Count() != len(set) {
			return false
		}
		n := 0
		for i := b.NextSet(0); i != -1; i = b.NextSet(i + 1) {
			if !set[i] {
				return false
			}
			n++
		}
		return n == len(set)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
