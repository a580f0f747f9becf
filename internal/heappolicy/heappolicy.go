// Package heappolicy makes the heap limit a first-class control loop.
//
// Historically each collector had a hard-coded answer to "how big may
// the heap get": a fixed page budget (Env.HeapPages), plus — for BC
// only — the paper's §3.3.3 reflex of shrinking the target to the
// current footprint on an eviction notice and regrowing it later (§7).
// This package extracts that decision into a pluggable Policy: the
// collector feeds the policy observations (allocation progress, GC
// cost, footprint, pressure signals) on the simulated clock, and the
// policy answers with a heap target in pages. Four policies ship:
//
//   - fixed: the status quo. The target is the configured maximum;
//     the policy never moves it. Compatibility default.
//   - bc-shrink: the paper's rule, extracted from BC. Shrink to the
//     footprint on an eviction notice; with Regrow, raise the target
//     by 1/8 once the VMM has had free memory for 10ms of quiet.
//   - membalancer: the square-root rule of "Optimal Heap Limits for
//     Reducing Browser Memory Use": M = L + sqrt(L·g/(c·s)) where L is
//     live bytes, g the EWMA allocation rate, s the EWMA GC speed, and
//     c a tunable aggressiveness. Provably composes across processes.
//   - composed: membalancer clamped by bc-shrink — the square-root
//     target, never above what eviction notices allow.
//
// Every policy is deterministic: decisions depend only on the Signals
// fed in, which are derived from the simulated clock and the
// collector's own books, never from host time. The fleet Balancer in
// internal/sim redistributes a machine budget across tenants by
// capping each tenant's Balancable policy (SetFleetCap).
package heappolicy

import (
	"fmt"
	"math"
	"sort"

	"bookmarkgc/internal/mem"
)

// Event says why the collector is consulting the policy.
type Event int

const (
	// EvGCEnd fires after every collection, with GC cost populated.
	EvGCEnd Event = iota
	// EvPressure fires when the VMM schedules an eviction against the
	// process (or, for relayed policies, against the tenant's Proc).
	// Signals.FootprintPages is the page count the collector is
	// actually holding resident (plus any discard credit).
	EvPressure
	// EvMutator fires periodically from the allocation path — the
	// hook bc-shrink uses to regrow. Policies that return false from
	// Wants(EvMutator) pay only an interface call per check.
	EvMutator
)

// Signals is one observation. All fields are on the simulated clock /
// the collector's own deterministic books.
type Signals struct {
	NowNS          int64  // simulated time
	MaxHeapPages   int    // configured ceiling (Env.HeapPages)
	UsedPages      int    // pages holding live/allocated data
	FootprintPages int    // resident pages (+ discard credit)
	FreeFrames     int    // VMM free-frame hint
	AllocBytes     uint64 // cumulative bytes allocated
	GCs            uint64 // cumulative collections
	GCTimeNS       int64  // cumulative GC pause time; valid on EvGCEnd
}

// Policy is a heap-limit control loop. Observe feeds one observation
// and returns the (possibly unchanged) target in pages; Target returns
// the current target without observing. Targets above MaxHeapPages
// mean "no opinion — use the configured ceiling". Implementations are
// single-tenant state machines; they are not safe for concurrent use
// (collectors are single-threaded on the simulated clock).
type Policy interface {
	Name() string
	// Wants reports whether Observe(ev, ...) can change the target —
	// the hot-path gate that keeps per-allocation checks free for
	// policies that ignore mutator ticks.
	Wants(ev Event) bool
	Observe(ev Event, s Signals) int
	Target() int
	// PressureSensitive reports whether the policy consumes
	// EvPressure, so the simulator knows to relay VMM eviction
	// notices to collectors that have no handler of their own.
	PressureSensitive() bool
}

// Balancable is implemented by policies a fleet Balancer can steer:
// they expose their live size and square-root weight and accept a
// fleet-wide cap on top of their own target.
type Balancable interface {
	Policy
	// BalanceStats returns the current live bytes estimate and the
	// square-root weight w = sqrt(L·g/(c·s)); weight 0 means the
	// policy has no rate estimates yet and should not receive a
	// share beyond its live size.
	BalanceStats() (liveBytes, weight float64)
	// SetFleetCap clamps the policy's target to cap pages (0 clears).
	SetFleetCap(pages int)
}

// Names lists the registered policy names, in presentation order.
func Names() []string { return []string{"fixed", "bc-shrink", "membalancer", "composed"} }

// Known reports whether name is a registered policy.
func Known(name string) bool {
	for _, n := range Names() {
		if n == name {
			return true
		}
	}
	return false
}

// Options tunes policy construction.
type Options struct {
	// Regrow enables bc-shrink's §7 regrow extension.
	Regrow bool
}

// New constructs a policy by name.
func New(name string, o Options) (Policy, error) {
	switch name {
	case "fixed":
		return Fixed{}, nil
	case "bc-shrink":
		return NewBCShrink(BCShrinkOptions{Regrow: o.Regrow}), nil
	case "membalancer":
		return NewMemBalancer(0), nil
	case "composed":
		return NewComposed(), nil
	default:
		known := Names()
		sort.Strings(known)
		return nil, fmt.Errorf("unknown heap policy %q (valid: %v)", name, known)
	}
}

// Fixed is the status-quo policy: the target is the configured
// maximum, forever. Collectors treat a nil policy identically; Fixed
// exists so "fixed" is a nameable point in sweeps.
type Fixed struct{}

func (Fixed) Name() string               { return "fixed" }
func (Fixed) Wants(Event) bool           { return false }
func (Fixed) Observe(Event, Signals) int { return math.MaxInt }
func (Fixed) Target() int                { return math.MaxInt }
func (Fixed) PressureSensitive() bool    { return false }

// BCShrinkOptions configures the extracted paper rule.
type BCShrinkOptions struct {
	Regrow bool
}

// bcShrink is the paper's §3.3.3 shrink-to-footprint rule with the §7
// regrow extension, extracted verbatim from BC so any collector can
// run it. The zero target is MaxInt: no opinion until pressure.
type bcShrink struct {
	regrow       bool
	target       int
	lastNoticeNS int64
}

// regrowQuietNS is the §7 quiet period: no regrowth within 10ms of
// the last eviction notice (simulated time).
const regrowQuietNS = 10e6

// NewBCShrink returns the extracted BC shrink/regrow policy.
func NewBCShrink(o BCShrinkOptions) Policy {
	return &bcShrink{regrow: o.Regrow, target: math.MaxInt}
}

func (p *bcShrink) Name() string            { return "bc-shrink" }
func (p *bcShrink) Target() int             { return p.target }
func (p *bcShrink) PressureSensitive() bool { return true }

func (p *bcShrink) Wants(ev Event) bool {
	switch ev {
	case EvPressure:
		return true
	case EvMutator:
		return p.regrow
	}
	return false
}

func (p *bcShrink) Observe(ev Event, s Signals) int {
	switch ev {
	case EvPressure:
		// §3.3.3: the footprint now exceeds available memory; limit
		// the heap to what is actually resident. Every valid notice —
		// even one that does not shrink — restarts the quiet period.
		p.lastNoticeNS = s.NowNS
		if s.FootprintPages < p.target {
			p.target = s.FootprintPages
		}
	case EvMutator:
		// §7 regrow: once the VMM has had free memory for a while,
		// raise the target by 1/8, capped at the configured maximum.
		if !p.regrow || p.target >= s.MaxHeapPages {
			break
		}
		if s.NowNS-p.lastNoticeNS < regrowQuietNS {
			break
		}
		if s.FreeFrames > s.MaxHeapPages/8 {
			p.target += p.target / 8
			if p.target > s.MaxHeapPages {
				p.target = s.MaxHeapPages
			}
		}
	}
	return p.target
}

// defaultAggressiveness is membalancer's c when unset. Tuned so that
// at this simulator's typical rates the square-root term lands between
// "live" and "configured max" — visibly smaller heaps than fixed
// without collapsing to the floor.
const defaultAggressiveness = 5e-8

// ewmaAlpha smooths the allocation-rate and GC-speed estimates.
const ewmaAlpha = 0.3

// memBalancer implements the square-root rule
//
//	M = L + sqrt(L·g / (c·s))
//
// with L live bytes after the last GC, g an EWMA of the allocation
// rate (bytes/sec of simulated time), s an EWMA of GC speed (live
// bytes traced per second of GC pause), and c the aggressiveness.
// Before two collections it has no rate estimates and stays at "no
// opinion" (MaxInt).
type memBalancer struct {
	c        float64
	target   int
	fleetCap int

	lastNS    int64
	lastAlloc uint64
	lastGCNS  int64
	haveRates bool
	liveBytes float64
	allocRate float64 // EWMA g, bytes/sec
	gcSpeed   float64 // EWMA s, bytes/sec of pause
}

// NewMemBalancer returns the square-root policy with aggressiveness c
// (0 = default); a larger c trades memory for GC time harder (smaller
// heaps).
func NewMemBalancer(c float64) Policy {
	if c <= 0 {
		c = defaultAggressiveness
	}
	return &memBalancer{c: c, target: math.MaxInt}
}

func (p *memBalancer) Name() string            { return "membalancer" }
func (p *memBalancer) PressureSensitive() bool { return false }

func (p *memBalancer) Wants(ev Event) bool { return ev == EvGCEnd }

func (p *memBalancer) Target() int {
	t := p.target
	if p.fleetCap > 0 && p.fleetCap < t {
		t = p.fleetCap
	}
	return t
}

func (p *memBalancer) Observe(ev Event, s Signals) int {
	if ev != EvGCEnd {
		return p.Target()
	}
	live := float64(s.UsedPages) * float64(mem.PageSize)
	dt := s.NowNS - p.lastNS
	dAlloc := s.AllocBytes - p.lastAlloc
	dGC := s.GCTimeNS - p.lastGCNS
	if p.lastNS != 0 && dt > 0 {
		instAlloc := float64(dAlloc) / (float64(dt) / 1e9)
		if p.haveRates {
			p.allocRate += ewmaAlpha * (instAlloc - p.allocRate)
		} else {
			p.allocRate = instAlloc
		}
		if dGC > 0 {
			instSpeed := live / (float64(dGC) / 1e9)
			if p.haveRates && p.gcSpeed > 0 {
				p.gcSpeed += ewmaAlpha * (instSpeed - p.gcSpeed)
			} else {
				p.gcSpeed = instSpeed
			}
		}
		p.haveRates = true
	}
	p.lastNS = s.NowNS
	p.lastAlloc = s.AllocBytes
	p.lastGCNS = s.GCTimeNS
	p.liveBytes = live

	if p.haveRates && p.allocRate > 0 && p.gcSpeed > 0 {
		extra := math.Sqrt(live * p.allocRate / (p.c * p.gcSpeed))
		pages := int(math.Ceil((live + extra) / float64(mem.PageSize)))
		if pages < 1 {
			pages = 1
		}
		p.target = pages
	}
	return p.Target()
}

func (p *memBalancer) BalanceStats() (float64, float64) {
	if !p.haveRates || p.allocRate <= 0 || p.gcSpeed <= 0 {
		return p.liveBytes, 0
	}
	return p.liveBytes, math.Sqrt(p.liveBytes * p.allocRate / (p.c * p.gcSpeed))
}

func (p *memBalancer) SetFleetCap(pages int) { p.fleetCap = pages }

// composed runs membalancer and bc-shrink side by side and takes the
// tighter of the two targets: the square-root rule sizes the heap for
// throughput, eviction notices clamp it to what the machine will
// actually let the process keep.
type composed struct {
	mb *memBalancer
	bc *bcShrink
}

// NewComposed returns membalancer clamped by bc-shrink.
func NewComposed() Policy {
	return &composed{
		mb: NewMemBalancer(0).(*memBalancer),
		bc: NewBCShrink(BCShrinkOptions{Regrow: true}).(*bcShrink),
	}
}

func (p *composed) Name() string            { return "composed" }
func (p *composed) PressureSensitive() bool { return true }

func (p *composed) Wants(ev Event) bool { return p.mb.Wants(ev) || p.bc.Wants(ev) }

func (p *composed) Target() int {
	t := p.mb.Target()
	if bt := p.bc.Target(); bt < t {
		t = bt
	}
	return t
}

func (p *composed) Observe(ev Event, s Signals) int {
	if p.mb.Wants(ev) {
		p.mb.Observe(ev, s)
	}
	if p.bc.Wants(ev) {
		p.bc.Observe(ev, s)
	}
	return p.Target()
}

func (p *composed) BalanceStats() (float64, float64) { return p.mb.BalanceStats() }
func (p *composed) SetFleetCap(pages int)            { p.mb.SetFleetCap(pages) }
