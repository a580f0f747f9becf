package workload_test

import (
	"bytes"
	"errors"
	"testing"

	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/mutator"
	"bookmarkgc/internal/objmodel"
	"bookmarkgc/internal/sim"
	"bookmarkgc/internal/workload"
)

// craft records a hand-made event stream through a Recorder. It counts
// the allocations it makes so the footer's totals match, and the root
// slots it adds, which gc.Roots hands out in order.
type craft struct {
	rec           *workload.Recorder
	allocs, bytes uint64
	slots         int
}

func (c *craft) alloc(kind byte, words int, hasInit bool, initIdx int) {
	// The init value is no address: stored into a reference slot, it
	// is a bad pointer the next collection trips on.
	c.rec.Alloc(kind, words, hasInit, initIdx, 0x40001)
	c.allocs++
	c.bytes += uint64(objmodel.HeaderBytes + words*mem.WordSize)
}

// root roots the object just allocated in a fresh slot.
func (c *craft) root() {
	c.rec.RootAdd(c.slots)
	c.slots++
}

// crafted returns the stream build records, followed by churn: a ring of
// root slots that each data array holds for a while, so objects are
// promoted and die old, and every collector runs full collections
// while build's objects are still rooted.

func crafted(t *testing.T, build func(c *craft)) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := workload.NewWriter(&buf, workload.Meta{Name: "crafted", Source: "synth:crafted"})
	if err != nil {
		t.Fatal(err)
	}
	c := &craft{rec: workload.NewRecorder(w)}
	build(c)
	c.rec.StepEnd()
	const ring = 512
	base := c.slots
	for i := 0; i < 16*ring; i++ {
		c.alloc(mutator.AllocDataArr, 256, false, 0)
		if i < ring {
			c.root()
		} else {
			c.rec.RootSet(base + i%ring)
		}
		c.rec.StepEnd()
	}
	if err := c.rec.Close(mutator.Result{Allocations: c.allocs, AllocatedBytes: c.bytes}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestVerifyAndReplayShareOneRulebook: Verify and the replayer read the
// same shape rules, so each crafted stream below is rejected by both,
// as corrupt, under every collector, or accepted by both. The rejected
// streams would store an integer into a reference slot, read one as
// data, or claim a header read no run makes; the accepted one is a
// link-nop to an empty slot, which stores nothing.
func TestVerifyAndReplayShareOneRulebook(t *testing.T) {
	node := func(c *craft) {
		c.alloc(mutator.AllocNode, 4, true, 2)
		c.root()
	}
	for _, tc := range []struct {
		name   string
		accept bool
		build  func(c *craft)
	}{
		{"init write to node word 0", false, func(c *craft) {
			c.alloc(mutator.AllocNode, 4, true, 0)
			c.root()
		}},
		{"work read at node word 1", false, func(c *craft) {
			node(c)
			c.rec.Work(0, 1, false, 0)
		}},
		{"work write at node word 0", false, func(c *craft) {
			node(c)
			c.rec.Work(0, 2, true, 0)
		}},
		{"zero-word data array", false, func(c *craft) {
			c.alloc(mutator.AllocDataArr, 0, false, 0)
			c.root()
		}},
		{"link-nop from a node", false, func(c *craft) {
			node(c)
			node(c)
			c.rec.Link(0, 1, false, 0)
		}},
		{"link-nop to an empty slot", true, func(c *craft) {
			c.alloc(mutator.AllocDataArr, 8, true, 0)
			c.root()
			c.rec.RootAddNil(1)
			c.slots++
			c.rec.Link(0, 1, false, 0)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw := crafted(t, tc.build)
			check := func(who string, err error) {
				t.Helper()
				switch {
				case tc.accept && err != nil:
					t.Errorf("%s rejects: %v", who, err)
				case !tc.accept && !errors.Is(err, workload.ErrCorrupt):
					t.Errorf("%s: got %v, want an error wrapping ErrCorrupt", who, err)
				}
			}
			_, err := verifyBytes(raw)
			check("Verify", err)
			src, err := workload.Open(writeTrace(t, raw))
			if err != nil {
				t.Fatal(err)
			}
			for _, col := range []sim.CollectorKind{sim.BC, sim.GenMS, sim.MarkSweep, sim.SemiSpace} {
				r := sim.Run(sim.RunConfig{Collector: col, HeapBytes: 8 << 20, PhysBytes: 64 << 20, Workload: src})
				check("replay under "+string(col), r.Err)
			}
		})
	}
}
