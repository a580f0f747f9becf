package heappolicy

import (
	"math"
	"strings"
	"testing"

	"bookmarkgc/internal/mem"
)

func TestNewKnownNames(t *testing.T) {
	for _, name := range Names() {
		p, err := New(name, Options{})
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("New(%q).Name() = %q", name, p.Name())
		}
		if !Known(name) {
			t.Fatalf("Known(%q) = false", name)
		}
	}
	if Known("nope") {
		t.Fatal("Known(nope) = true")
	}
	if _, err := New("nope", Options{}); err == nil ||
		!strings.Contains(err.Error(), "membalancer") {
		t.Fatalf("New(nope) error should list valid names, got %v", err)
	}
}

func TestFixedNeverMoves(t *testing.T) {
	p := Fixed{}
	if p.Wants(EvGCEnd) || p.Wants(EvPressure) || p.Wants(EvMutator) {
		t.Fatal("fixed should want no events")
	}
	if got := p.Observe(EvGCEnd, Signals{UsedPages: 10}); got != math.MaxInt {
		t.Fatalf("fixed target = %d", got)
	}
}

func TestBCShrinkShrinkAndRegrow(t *testing.T) {
	p := NewBCShrink(BCShrinkOptions{Regrow: true})
	if p.Target() != math.MaxInt {
		t.Fatalf("initial target = %d, want MaxInt", p.Target())
	}
	// Shrink to footprint on pressure.
	p.Observe(EvPressure, Signals{NowNS: 1_000_000, FootprintPages: 100, MaxHeapPages: 400})
	if p.Target() != 100 {
		t.Fatalf("after pressure target = %d, want 100", p.Target())
	}
	// A larger footprint on a later notice must not regrow the target.
	p.Observe(EvPressure, Signals{NowNS: 2_000_000, FootprintPages: 150, MaxHeapPages: 400})
	if p.Target() != 100 {
		t.Fatalf("pressure regrew target to %d", p.Target())
	}
	// Mutator tick inside the quiet window: no regrow.
	p.Observe(EvMutator, Signals{NowNS: 5_000_000, MaxHeapPages: 400, FreeFrames: 400})
	if p.Target() != 100 {
		t.Fatalf("regrew inside quiet window: %d", p.Target())
	}
	// Past the quiet window but memory still tight: no regrow.
	p.Observe(EvMutator, Signals{NowNS: 20_000_000, MaxHeapPages: 400, FreeFrames: 10})
	if p.Target() != 100 {
		t.Fatalf("regrew under tight memory: %d", p.Target())
	}
	// Quiet and free: +1/8.
	p.Observe(EvMutator, Signals{NowNS: 20_000_000, MaxHeapPages: 400, FreeFrames: 400})
	if p.Target() != 112 {
		t.Fatalf("regrow target = %d, want 112", p.Target())
	}
	// Regrowth saturates at the configured maximum.
	for i := 0; i < 100; i++ {
		p.Observe(EvMutator, Signals{NowNS: 20_000_000, MaxHeapPages: 400, FreeFrames: 400})
	}
	if p.Target() != 400 {
		t.Fatalf("saturated target = %d, want 400", p.Target())
	}
}

func TestBCShrinkNoRegrowWhenDisabled(t *testing.T) {
	p := NewBCShrink(BCShrinkOptions{})
	if p.Wants(EvMutator) {
		t.Fatal("bc-shrink without regrow should not want mutator ticks")
	}
	p.Observe(EvPressure, Signals{NowNS: 1, FootprintPages: 50, MaxHeapPages: 400})
	p.Observe(EvMutator, Signals{NowNS: 1e9, MaxHeapPages: 400, FreeFrames: 400})
	if p.Target() != 50 {
		t.Fatalf("target = %d, want 50", p.Target())
	}
}

func TestMemBalancerSquareRoot(t *testing.T) {
	p := NewMemBalancer(0).(*memBalancer)
	if p.Wants(EvPressure) || p.Wants(EvMutator) || !p.Wants(EvGCEnd) {
		t.Fatal("membalancer should want exactly EvGCEnd")
	}
	// First GC: establishes a baseline, no rates yet.
	p.Observe(EvGCEnd, Signals{NowNS: 1e9, UsedPages: 1000, AllocBytes: 1 << 24, GCTimeNS: 1e7})
	if p.Target() != math.MaxInt {
		t.Fatalf("target after one GC = %d, want MaxInt", p.Target())
	}
	// Second GC: rates become available; target = live + sqrt term.
	p.Observe(EvGCEnd, Signals{NowNS: 2e9, UsedPages: 1000, AllocBytes: 2 << 24, GCTimeNS: 2e7})
	live := 1000.0 * float64(mem.PageSize)
	g := float64(1<<24) / 1.0 // bytes over 1s
	s := live / 0.01          // live over 10ms of pause
	want := int(math.Ceil((live + math.Sqrt(live*g/(defaultAggressiveness*s))) / float64(mem.PageSize)))
	if p.Target() != want {
		t.Fatalf("target = %d, want %d", p.Target(), want)
	}
	if p.Target() <= 1000 {
		t.Fatalf("target %d should exceed live pages", p.Target())
	}
	// Fleet cap clamps, and clears.
	p.SetFleetCap(1)
	if p.Target() != 1 {
		t.Fatalf("capped target = %d", p.Target())
	}
	p.SetFleetCap(0)
	if p.Target() != want {
		t.Fatalf("uncapped target = %d, want %d", p.Target(), want)
	}
	if l, w := p.BalanceStats(); l != live || w <= 0 {
		t.Fatalf("BalanceStats = (%v, %v)", l, w)
	}
}

func TestMemBalancerHigherAggressivenessShrinks(t *testing.T) {
	run := func(c float64) int {
		p := NewMemBalancer(c)
		p.Observe(EvGCEnd, Signals{NowNS: 1e9, UsedPages: 500, AllocBytes: 1 << 23, GCTimeNS: 1e7})
		p.Observe(EvGCEnd, Signals{NowNS: 2e9, UsedPages: 500, AllocBytes: 2 << 23, GCTimeNS: 2e7})
		return p.Target()
	}
	if lo, hi := run(1e-2), run(1e-4); lo >= hi {
		t.Fatalf("aggressive c should shrink the heap: c=1e-2 -> %d, c=1e-4 -> %d", lo, hi)
	}
}

func TestComposedTakesTighterTarget(t *testing.T) {
	p := NewComposed().(*composed)
	if !p.Wants(EvGCEnd) || !p.Wants(EvPressure) || !p.Wants(EvMutator) {
		t.Fatal("composed should want all events")
	}
	if !p.PressureSensitive() {
		t.Fatal("composed should be pressure sensitive")
	}
	// Feed rates so membalancer has an opinion.
	p.Observe(EvGCEnd, Signals{NowNS: 1e9, UsedPages: 1000, AllocBytes: 1 << 24, GCTimeNS: 1e7})
	p.Observe(EvGCEnd, Signals{NowNS: 2e9, UsedPages: 1000, AllocBytes: 2 << 24, GCTimeNS: 2e7})
	mb := p.mb.Target()
	// An eviction notice with a tiny footprint clamps below membalancer.
	p.Observe(EvPressure, Signals{NowNS: 2e9 + 1, FootprintPages: 10, MaxHeapPages: 1 << 20})
	if p.Target() != 10 {
		t.Fatalf("composed target = %d, want bc clamp 10 (mb %d)", p.Target(), mb)
	}
	// SetFleetCap steers the membalancer half.
	p.SetFleetCap(5)
	if p.mb.Target() != 5 {
		t.Fatalf("fleet cap not applied: %d", p.mb.Target())
	}
}
