package mutator

import (
	"math"
	"math/rand"
	"testing"
)

// rngArgs are the Intn arguments the comparison cycles through: the
// smallest, the largest Int31n takes, powers of two, their neighbours,
// and sizes the generator really draws against.
var rngArgs = []int{
	1, 2, 3, 4, 5, 7, 8, 10, 14, 16, 17, 100, 255, 256, 257, 1000, 4096, 4097,
	65535, 65536, 1_000_003, 1 << 20, 1<<30 - 1, 1 << 30, 1<<30 + 1, 1<<31 - 2, 1<<31 - 1,
}

// compareStreams draws n mixed values from a fresh rng and a fresh
// rand.Rand and reports the first disagreement. pick steers the mix: op
// 0 is Intn, 1 Uint64, 2 Float64 and 3 intn through a divisor, which
// takes an arg below 2^31.
func compareStreams(t testing.TB, seed int64, n int, pick func(i int) (op, arg int)) {
	t.Helper()
	var got rng
	got.seed(seed)
	want := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		switch op, arg := pick(i); op {
		case 0:
			if g, w := got.Intn(arg), want.Intn(arg); g != w {
				t.Fatalf("seed %d draw %d: Intn(%d) = %d, math/rand %d", seed, i, arg, g, w)
			}
		case 1:
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: Uint64 = %#x, math/rand %#x", seed, i, g, w)
			}
		case 2:
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d draw %d: Float64 = %v, math/rand %v", seed, i, g, w)
			}
		case 3:
			if g, w := got.intn(newDivisor(arg)), want.Intn(arg); g != w {
				t.Fatalf("seed %d draw %d: intn(divisor %d) = %d, math/rand Intn %d", seed, i, arg, g, w)
			}
		}
	}
}

// TestRNGMatchesMathRand pins "draw-for-draw identical": every seed's
// mixed stream runs for 33 ring lengths, so the backwards priming, both
// ring wraps and the rejection loops are all crossed many times.
func TestRNGMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, 2, -1, -2, 89482311, math.MaxInt32, math.MaxInt32 + 1, math.MinInt64, math.MaxInt64, -math.MaxInt32}
	for s := int64(3); len(seeds) < 48; s = s*7 + 11 {
		seeds = append(seeds, s, -s)
	}
	for _, seed := range seeds {
		mix := rand.New(rand.NewSource(seed ^ 0x5eed))
		compareStreams(t, seed, 20_031, func(i int) (int, int) {
			op := mix.Intn(4)
			arg := rngArgs[mix.Intn(len(rngArgs))]
			if mix.Intn(3) == 0 {
				arg = 1 + mix.Intn(1<<31-1)
			}
			return op, arg
		})
	}
	// Int63n's range, which Intn reaches for n > 2^31-1.
	for _, n := range []int{1 << 31, 1<<31 + 1, 1 << 40, 3 << 40, 1<<62 + 12345, math.MaxInt64} {
		compareStreams(t, int64(n), 2000, func(int) (int, int) { return 0, n })
	}
}

func FuzzRNGMatchesMathRand(f *testing.F) {
	f.Add(int64(1), uint32(14), []byte{0, 1, 2, 3})
	f.Add(int64(-7), uint32(1<<31-1), []byte{3, 3, 0, 0, 2})
	f.Add(int64(0), uint32(1<<30), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, n uint32, ops []byte) {
		arg := max(int(n&(1<<31-1)), 1)
		compareStreams(t, seed, 700+len(ops), func(i int) (int, int) {
			if i < len(ops) {
				return int(ops[i] % 4), arg
			}
			return i % 4, 1 + (arg+i)%(1<<31-1)
		})
	})
}

// TestDivisorMatchesModulo holds the reciprocal to the remainder it
// replaces at the edges of the 31-bit draw range and at random draws,
// for bounds at the edges of theirs, powers of two and their neighbours,
// and a live-set size.
func TestDivisorMatchesModulo(t *testing.T) {
	ns := []uint64{1, 2, 3, 7, 79_000, 1<<31 - 1}
	for k := 1; k < 31; k++ {
		ns = append(ns, 1<<k-1, 1<<k, 1<<k+1)
	}
	rnd := rand.New(rand.NewSource(1))
	for _, n := range ns {
		d := newDivisor(int(n))
		vs := []uint64{0, 1, n - 1, n, 1<<31 - n, 1<<31 - 1, 1<<32 - 1}
		for i := 0; i < 1000; i++ {
			vs = append(vs, uint64(rnd.Int31()))
		}
		for _, v := range vs {
			if got := d.mod(v); got != v%n {
				t.Fatalf("divisor %d: mod(%d) = %d, want %d", n, v, got, v%n)
			}
		}
	}
}

func BenchmarkRNGIntn(b *testing.B) {
	const n = 79_000 // a live-set size: not a power of two
	b.Run("rng", func(b *testing.B) {
		var r rng
		r.seed(1)
		sum := 0
		for i := 0; i < b.N; i++ {
			sum += r.Intn(n)
		}
		sinkInt = sum
	})
	b.Run("divisor", func(b *testing.B) {
		var r rng
		r.seed(1)
		d := newDivisor(n)
		sum := 0
		for i := 0; i < b.N; i++ {
			sum += r.intn(d)
		}
		sinkInt = sum
	})
	b.Run("math-rand", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		sum := 0
		for i := 0; i < b.N; i++ {
			sum += r.Intn(n)
		}
		sinkInt = sum
	})
}

var sinkInt int
