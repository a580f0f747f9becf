package mutator

import (
	"math/bits"
	"math/rand"

	"bookmarkgc/internal/mem"
)

// rng is the generator's random source: draw-for-draw identical to
// rand.New(rand.NewSource(seed)), but concrete, so the work loop's draws
// inline instead of going through rand.Rand's Source interface.
//
// The Go 1 source is an additive lagged Fibonacci generator whose outputs
// are its state: x[n] = x[n-607] + x[n-273] (mod 2^64). Any 607
// consecutive outputs therefore determine the whole sequence in both
// directions, so seed takes the first 607 outputs of rand.NewSource(seed),
// runs the recurrence backwards over them to the 607 words that precede
// the first, and from there continues forwards itself — the seeding
// procedure and its table stay in math/rand. math/rand keeps the last 607
// outputs in a ring of exactly that length and wraps two indices by
// compare and reset; here the ring is the next power of two, so one
// counter and three masks do, with no branch and no bounds check.
//
// Intn, Float64 and Uint64 reproduce rand.Rand's derivations bit for bit
// (DESIGN.md §17); TestRNGMatchesMathRand holds them to it.
type rng struct {
	vec [rngRing]uint64 // x[i] is at i mod rngRing, for the last rngRing values of i
	n   uint            // index of the next output
}

const (
	rngLen  = 607
	rngTap  = 273
	rngRing = 1024
)

// seedSources holds math/rand sources between seedings. Seeding one
// afresh resets its whole state, so a recycled source yields exactly
// what a new one would, without allocating its 5 KB table each run.
var seedSources mem.FreeList[rand.Source64]

// seed makes r's next output the first output of rand.NewSource(seed).
func (r *rng) seed(seed int64) {
	src, ok := seedSources.Get()
	if !ok {
		src = rand.NewSource(seed).(rand.Source64)
	}
	src.Seed(seed)
	for i := 0; i < rngLen; i++ {
		r.vec[i] = src.Uint64() // x[i]
	}
	seedSources.Put(src)
	// x[n-607] = x[n] - x[n-273], newest first: x[n-273] is either one of
	// the outputs above or a word an earlier turn has just recovered.
	for n := uint(rngLen - 1); n < rngLen; n-- {
		r.vec[(n-rngLen)%rngRing] = r.vec[n] - r.vec[(n-rngTap)%rngRing]
	}
	r.n = 0
}

// Uint64 returns the next 64-bit output.
func (r *rng) Uint64() uint64 {
	n := r.n
	x := r.vec[(n-rngLen)%rngRing] + r.vec[(n-rngTap)%rngRing]
	r.vec[n%rngRing] = x
	r.n = n + 1
	return x
}

func (r *rng) int63() int64 { return int64(r.Uint64() &^ (1 << 63)) }
func (r *rng) int31() int32 { return int32(r.Uint64() << 1 >> 33) }

// below is rand.Rand.Int31n for 0 < n < 2^31, small enough to inline.
// Int31n makes v % n uniform by resampling every draw v above
// max = 2^31-1 - 2^31%n, that is, every v in the last, partial block of n
// values below 2^31. A block [v-v%n, v-v%n+n) is whole exactly when its
// base is at most 2^31-n, and that test needs only the remainder the
// caller wants anyway, not a second division for max: the loop accepts
// and rejects the same draws with one.
func (r *rng) below(n uint32) uint32 {
	for {
		v := uint32(r.int31())
		if rem := v % n; v-rem <= 1<<31-n {
			return rem
		}
	}
}

// divisor is a draw bound n in [1, 2^31) with its 64-bit reciprocal
// m = ⌈2^64/n⌉ mod 2^64, so that v % n for any 32-bit v is the high word
// of (m·v mod 2^64)·n: one wrapping and one widening multiply instead of
// a division (Lemire, Kaser & Kurz, "Faster Remainder by Direct
// Computation", 2019, which proves it exact for 32-bit v and n). For
// n = 1 the reciprocal wraps to 0 and the remainder is 0, as it should
// be.
type divisor struct {
	m, n uint64
}

func newDivisor(n int) divisor {
	if n <= 0 || n > 1<<31-1 {
		panic("mutator: divisor out of range")
	}
	return divisor{m: ^uint64(0)/uint64(n) + 1, n: uint64(n)}
}

// mod returns v % d.n for v < 2^32.
func (d divisor) mod(v uint64) uint64 {
	hi, _ := bits.Mul64(d.m*v, d.n)
	return hi
}

// intn is Intn(d.n) without a division: below's loop and accept test
// with the reciprocal's remainder. It needs no power-of-two case, because
// such an n divides 2^31: no draw is rejected and v % n is Intn's
// v & (n-1). Without that branch, and with int31 and d.mod written out,
// it fits the inliner's budget (cost 79 of 80), so the work loop's draws
// make no call.
func (r *rng) intn(d divisor) int {
	for {
		v := r.Uint64() << 1 >> 33       // int31
		rem, _ := bits.Mul64(d.m*v, d.n) // d.mod(v)
		if v-rem <= 1<<31-d.n {
			return int(rem)
		}
	}
}

// Intn is rand.Rand.Intn: a mask for a power of two, else Int31n, or
// Int63n (below, on 63 bits) for an n Int31n cannot take.
func (r *rng) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n&(n-1) == 0 {
		if n <= 1<<31-1 {
			return int(r.int31()) & (n - 1)
		}
		return int(r.int63()) & (n - 1)
	}
	if n <= 1<<31-1 {
		return int(r.below(uint32(n)))
	}
	for n := uint64(n); ; {
		v := uint64(r.int63())
		if rem := v % n; v-rem <= 1<<63-n {
			return int(rem)
		}
	}
}

// Float64 is rand.Rand.Float64: Int63/2^63, resampled in the one case in
// 2^53 where the division rounds up to 1.
func (r *rng) Float64() float64 {
	for {
		if f := float64(r.int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}
