// Package fault injects kernel misbehaviour into the VM-cooperation
// protocol. The paper's design (§3.3–3.5) assumes an asynchronous,
// adversarial virtual memory manager: eviction notifications can arrive
// mid-operation, late, or — on an unmodified kernel — not at all, and BC
// is required to stay complete and merely degrade. The Injector
// interposes on a process's vmm.Handler and, driven by a seeded PRNG
// consumed only at simulated-event points, can
//
//   - drop eviction or reload notifications (the page still moves; the
//     runtime just never hears about it — a lost signal);
//   - delay eviction notifications until the next safepoint, so they
//     arrive after the kernel has already acted on the page;
//   - duplicate and reorder eviction notifications (queued real-time
//     signals on a loaded kernel);
//   - mute everything (uncooperative-kernel mode, the paper's "no VM
//     support" fallback);
//   - forge reload-notification storms for random pages;
//   - spike memory pressure on a schedule, like a burst-mode signalmem.
//
// Runs are deterministic: the PRNG is seeded from Config.Seed and only
// advanced at points fixed by the simulated execution, so the same
// (program, seed, regime, chaos-seed) tuple replays bit-identically.
package fault

import (
	"fmt"
	"math/rand"
	"time"

	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/trace"
	"bookmarkgc/internal/vmm"
)

// Config describes one fault regime. Probabilities are per notification;
// zero values mean the corresponding fault is off.
type Config struct {
	// Seed drives the injector's PRNG.
	Seed int64

	// DropEvict is the probability an eviction notification is swallowed
	// (the VMM then evicts the page with the runtime none the wiser).
	DropEvict float64
	// DropReload is the probability a reload notification is swallowed.
	DropReload float64
	// DelayEvict is the probability an eviction notification is held and
	// delivered at the next safepoint — after the eviction has happened.
	DelayEvict float64
	// DupEvict is the probability an eviction notification is delivered
	// twice back to back.
	DupEvict float64
	// ReorderProb buffers eviction notifications (up to ReorderDepth)
	// and delivers them in shuffled order.
	ReorderProb  float64
	ReorderDepth int
	// StormProb triggers, after a genuine reload, a burst of
	// StormReloads forged reload notifications for random pages.
	StormProb    float64
	StormReloads int
	// Mute suppresses every notification: the uncooperative kernel.
	Mute bool
	// SpikePeriod, when positive, pins SpikeFrac of the machine every
	// period and releases it after SpikeHold (default period/2).
	SpikePeriod time.Duration
	SpikeHold   time.Duration
	SpikeFrac   float64
}

// TenantSeed derives tenant t's injector seed from a fleet-wide chaos
// seed with a splitmix64-style finalizer. Seeding each tenant's PRNG
// with `seed+t` would correlate fault schedules across the fleet (linear
// seeds land in nearby PRNG streams); the avalanche mix makes every
// tenant's schedule statistically independent while keeping the whole
// fleet reproducible from the single chaos seed.
func TenantSeed(chaosSeed int64, tenant int) int64 {
	z := uint64(chaosSeed) + 0x9e3779b97f4a7c15*uint64(tenant+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// Regimes lists the named fault regimes, in documentation order.
func Regimes() []string {
	return []string{"drop", "delay", "duplicate", "reorder", "no-notify", "reload-storm", "thrash"}
}

// ByName returns the Config for a named regime with the given seed; ok is
// false for an unknown name.
func ByName(name string, seed int64) (Config, bool) {
	c := Config{Seed: seed}
	switch name {
	case "drop":
		c.DropEvict, c.DropReload = 0.5, 0.3
	case "delay":
		c.DelayEvict = 0.6
	case "duplicate":
		c.DupEvict = 0.5
	case "reorder":
		c.ReorderProb, c.ReorderDepth = 0.6, 4
	case "no-notify":
		c.Mute = true
	case "reload-storm":
		c.StormProb, c.StormReloads = 0.5, 3
	case "thrash":
		c.SpikePeriod = 10 * time.Millisecond
		c.SpikeHold = 5 * time.Millisecond
		c.SpikeFrac = 0.2
		c.DropEvict = 0.2
	default:
		return Config{}, false
	}
	return c, true
}

// Stats counts what the injector did to the notification stream. Replays
// with the same seeds must reproduce these exactly.
type Stats struct {
	EvictsSeen       uint64
	EvictsDropped    uint64
	EvictsDelayed    uint64
	EvictsDuplicated uint64
	EvictsReordered  uint64
	ReloadsSeen      uint64
	ReloadsDropped   uint64
	SpuriousReloads  uint64
	Muted            uint64
	Spikes           uint64
}

// String renders the non-zero fields compactly for run summaries.
func (s Stats) String() string {
	return fmt.Sprintf(
		"evicts=%d (dropped=%d delayed=%d dup=%d reordered=%d) reloads=%d (dropped=%d spurious=%d) muted=%d spikes=%d",
		s.EvictsSeen, s.EvictsDropped, s.EvictsDelayed, s.EvictsDuplicated, s.EvictsReordered,
		s.ReloadsSeen, s.ReloadsDropped, s.SpuriousReloads, s.Muted, s.Spikes)
}

// Injector sits between the VMM and a process's registered handler,
// mutating the notification stream per its Config. It implements
// vmm.Handler.
type Injector struct {
	cfg      Config
	rng      *rand.Rand
	inner    vmm.Handler
	proc     *vmm.Proc
	counters *trace.Counters
	stats    Stats

	delayed []mem.PageID // evictions held for the next safepoint
	buffer  []mem.PageID // evictions held for shuffled delivery
}

var _ vmm.Handler = (*Injector)(nil)

// Interpose wraps p's registered handler with a fault injector and
// re-registers. When p has no handler (a non-cooperative collector) no
// interposition happens — there is no notification stream to corrupt —
// but the returned Injector can still drive pressure spikes. counters may
// be nil.
func Interpose(p *vmm.Proc, cfg Config, counters *trace.Counters) *Injector {
	rng, ok := freeRands.Get()
	if ok {
		rng.Seed(cfg.Seed)
	} else {
		rng = rand.New(rand.NewSource(cfg.Seed))
	}
	inj := &Injector{
		cfg:      cfg,
		rng:      rng,
		inner:    p.Handler(),
		proc:     p,
		counters: counters,
	}
	if inj.inner != nil {
		p.Register(inj)
	}
	return inj
}

// freeRands holds the generators of released injectors. Seeding one
// resets its whole state, so a recycled generator draws exactly what a
// new one would, without allocating its 5 KB table.
var freeRands mem.FreeList[*rand.Rand]

// Release hands the injector's generator to the next Interpose. Call it
// once the run has ended, when nothing draws through i again.
func (i *Injector) Release() {
	freeRands.Put(i.rng)
	i.rng = nil
}

// Stats returns a copy of the injection counts so far.
func (i *Injector) Stats() Stats { return i.stats }

// roll consumes one PRNG draw iff prob is positive.
func (i *Injector) roll(prob float64) bool {
	return prob > 0 && i.rng.Float64() < prob
}

// EvictionScheduled implements vmm.Handler.
func (i *Injector) EvictionScheduled(p mem.PageID) {
	i.stats.EvictsSeen++
	switch {
	case i.cfg.Mute:
		i.stats.Muted++
		i.counters.Inc(trace.CChaosMuted)
	case i.roll(i.cfg.DropEvict):
		i.stats.EvictsDropped++
		i.counters.Inc(trace.CChaosEvictsDropped)
	case i.roll(i.cfg.DelayEvict):
		i.stats.EvictsDelayed++
		i.counters.Inc(trace.CChaosEvictsDelayed)
		i.delayed = append(i.delayed, p)
	case i.cfg.ReorderDepth > 1 && i.roll(i.cfg.ReorderProb):
		i.stats.EvictsReordered++
		i.counters.Inc(trace.CChaosEvictsReordered)
		i.buffer = append(i.buffer, p)
		if len(i.buffer) >= i.cfg.ReorderDepth {
			i.flushReordered()
		}
	default:
		i.inner.EvictionScheduled(p)
		if i.roll(i.cfg.DupEvict) {
			i.stats.EvictsDuplicated++
			i.counters.Inc(trace.CChaosEvictsDuplicated)
			i.inner.EvictionScheduled(p)
		}
	}
}

// PageReloaded implements vmm.Handler.
func (i *Injector) PageReloaded(p mem.PageID, wasEvicted bool) {
	i.stats.ReloadsSeen++
	switch {
	case i.cfg.Mute:
		i.stats.Muted++
		i.counters.Inc(trace.CChaosMuted)
	case i.roll(i.cfg.DropReload):
		i.stats.ReloadsDropped++
		i.counters.Inc(trace.CChaosReloadsDropped)
	default:
		i.inner.PageReloaded(p, wasEvicted)
		if i.cfg.StormReloads > 0 && i.roll(i.cfg.StormProb) {
			n := i.proc.Space().Pages()
			for k := 0; k < i.cfg.StormReloads; k++ {
				q := mem.PageID(i.rng.Intn(n))
				i.stats.SpuriousReloads++
				i.counters.Inc(trace.CChaosSpuriousReloads)
				i.inner.PageReloaded(q, i.rng.Intn(2) == 0)
			}
		}
	}
}

// Safepoint delivers the notifications the injector has been holding back
// (delay and reorder faults). Drivers call it between mutator quanta: the
// paper's notifications are queueable signals, and a held-up signal lands
// when the process next runs — by which time the kernel has already acted
// on the page, so the runtime sees a stale notification.
func (i *Injector) Safepoint() {
	if len(i.delayed) > 0 {
		// Delivery can re-enter the injector (processing a stale eviction
		// may fault pages and trigger reclaim); detach the batch first so
		// re-entrant holds land in a fresh slice for the next safepoint.
		batch := i.delayed
		i.delayed = nil
		for _, p := range batch {
			i.inner.EvictionScheduled(p)
		}
	}
	if len(i.buffer) > 0 {
		i.flushReordered()
	}
}

// flushReordered delivers the reorder buffer in PRNG-shuffled order.
func (i *Injector) flushReordered() {
	batch := i.buffer
	i.buffer = nil
	for _, k := range i.rng.Perm(len(batch)) {
		i.inner.EvictionScheduled(batch[k])
	}
}

// StartSpikes arms the pressure-spike schedule on the machine's clock:
// every SpikePeriod, SpikeFrac of the machine's frames are pinned and
// released SpikeHold later. The schedule recurs for the whole run.
func (i *Injector) StartSpikes(v *vmm.VMM) {
	if i.cfg.SpikePeriod <= 0 || i.cfg.SpikeFrac <= 0 {
		return
	}
	frames := int(i.cfg.SpikeFrac * float64(v.TotalFrames()))
	if frames < 1 {
		frames = 1
	}
	hold := i.cfg.SpikeHold
	if hold <= 0 || hold >= i.cfg.SpikePeriod {
		hold = i.cfg.SpikePeriod / 2
	}
	// Both events are bound once, so a spike schedules without allocating.
	unpin := func() { v.Unpin(frames) }
	var spike func()
	spike = func() {
		i.stats.Spikes++
		i.counters.Inc(trace.CChaosPressureSpikes)
		v.Pin(frames)
		v.Clock.Schedule(v.Clock.Now()+hold, unpin)
		v.Clock.Schedule(v.Clock.Now()+i.cfg.SpikePeriod, spike)
	}
	v.Clock.Schedule(v.Clock.Now()+i.cfg.SpikePeriod, spike)
}
