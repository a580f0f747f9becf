package gc

import (
	"math/rand"
	"testing"

	"bookmarkgc/internal/mem"
)

// TestRemSetCardSoundnessProperty: after any sequence of records and
// flushes, every slot whose filter verdict was true at flush time is
// covered by a marked card or still sits in the buffer — the property
// nursery collection correctness rests on (§3.1).
func TestRemSetCardSoundnessProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	space := testEnv(t).Space
	for trial := 0; trial < 50; trial++ {
		interesting := map[mem.Addr]bool{}
		r := NewRemSet(space, 0, 1<<20, 16)
		r.SetFilter(func(slot mem.Addr) bool { return interesting[slot] })

		recorded := map[mem.Addr]bool{}
		for i := 0; i < 200; i++ {
			slot := mem.Addr(rng.Intn(1<<17)) * 8
			// The mutator decides, before recording, whether this slot
			// holds a nursery pointer; it may later be overwritten.
			interesting[slot] = rng.Intn(2) == 0
			r.Record(slot)
			if interesting[slot] {
				recorded[slot] = true
			}
			if rng.Intn(10) == 0 {
				// Overwrite some slot: no longer interesting.
				for s := range interesting {
					interesting[s] = false
					delete(recorded, s)
					break
				}
			}
		}
		// Every still-interesting slot must be findable: in the buffer or
		// under a marked card.
		inBuffer := map[mem.Addr]bool{}
		r.ForEachSlot(func(s mem.Addr) { inBuffer[s] = true })
		covered := func(s mem.Addr) bool {
			if inBuffer[s] {
				return true
			}
			ok := false
			r.ForEachCard(func(start, end mem.Addr) {
				if s >= start && s < end {
					ok = true
				}
			})
			return ok
		}
		for s := range recorded {
			if interesting[s] && !covered(s) {
				t.Fatalf("trial %d: interesting slot %#x lost", trial, s)
			}
		}
		// The buffer never exceeds its page-sized capacity.
		if r.Size() >= 17 {
			t.Fatalf("trial %d: buffer grew to %d entries", trial, r.Size())
		}
	}
}
