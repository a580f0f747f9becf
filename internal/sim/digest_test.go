package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"bookmarkgc/internal/core"
	"bookmarkgc/internal/gc"
	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/mutator"
	"bookmarkgc/internal/objmodel"
)

// liveGraphHash is the first slice of the collector-independent heap
// verifier (ROADMAP "One verifier for every collector"): it walks col's
// live graph breadth-first from the roots, in slot order, numbering
// objects by first visit, and hashes each object's type id, array
// length, non-reference payload words and children's numbers. Addresses
// never enter the hash, so two collectors that kept the same graph
// alive report the same digest wherever they put it. Every read is a PeekWord: the walk charges
// nothing and cannot perturb the run. It fails on a reference that is
// misaligned or outside the space, an unregistered type, a length that
// runs the object off the space, and a forwarded header (the walk runs
// between collections, when none may be left reachable).
func liveGraphHash(col gc.Collector) (digest uint64, objects int, err error) {
	env := col.Env()
	s, size := env.Space, env.Space.Size()
	number := map[objmodel.Ref]uint64{} // first-visit number, from 1
	var queue []objmodel.Ref
	visit := func(o objmodel.Ref) (uint64, error) {
		if o == mem.Nil {
			return 0, nil
		}
		if n, seen := number[o]; seen {
			return n, nil
		}
		if o%mem.WordSize != 0 || o+objmodel.HeaderBytes > size {
			return 0, fmt.Errorf("reference %#x is misaligned or outside the %#x-byte space", o, size)
		}
		number[o] = uint64(len(number) + 1)
		queue = append(queue, o)
		return number[o], nil
	}
	h := fnv.New64a()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	var firstErr error
	col.Roots().ForEach(func(slot *mem.Addr) {
		n, err := visit(*slot)
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("root: %w", err)
		}
		put(n)
	})
	if firstErr != nil {
		return 0, 0, firstErr
	}
	for len(queue) > 0 {
		o := queue[0]
		queue = queue[1:]
		forwarded, id, n := objmodel.PeekHeader(s, o)
		if forwarded {
			return 0, 0, fmt.Errorf("object %#x (%s) is forwarded outside a collection", o, env.Layout.Region(o))
		}
		if id < 0 || int(id) >= env.Types.Len() {
			return 0, 0, fmt.Errorf("object %#x has unregistered type %d", o, id)
		}
		t := env.Types.Get(id)
		if t.Kind == objmodel.KindScalar && n != 0 || o+mem.Addr(t.TotalBytes(n)) > size {
			return 0, 0, fmt.Errorf("object %#x (%s) has out-of-range length %d", o, t.Name, n)
		}
		put(uint64(id))
		put(uint64(n))
		ref := 0 // next reference slot; slots ascend with the payload
		for w := 0; w < t.PayloadWords(n); w++ {
			a := objmodel.Payload(o) + mem.Addr(w)*mem.WordSize
			v := s.PeekWord(a)
			if ref < t.NumRefSlots(n) && t.RefSlotAddr(o, ref) == a {
				ref++
				if v, err = visit(objmodel.Ref(v)); err != nil {
					return 0, 0, fmt.Errorf("%s %#x word %d: %w", t.Name, o, w, err)
				}
			}
			put(v)
		}
	}
	return h.Sum64(), len(number), nil
}

// syncPoint is the live graph at one forced collection.
type syncPoint struct {
	digest  uint64
	objects int
}

// digestRun drives cfg's seeded mutator under kind, forcing a
// collection and taking the live digest every syncEvery quanta.
func digestRun(t *testing.T, kind CollectorKind, cfg RunConfig, syncEvery int) (syncs []syncPoint, checksum uint64, stats gc.Stats) {
	t.Helper()
	cfg.Collector = kind
	m := newMachine(cfg.PhysBytes, nil)
	defer m.release()
	tn, err := m.admit(string(kind), cfg, nil)
	if err != nil {
		t.Fatalf("%s: %v", kind, err)
	}
	defer tn.release()
	if cfg.Pressure != nil {
		StartSignalMem(m.v, *cfg.Pressure, nil)
	}
	for q := 1; tn.step(512); q++ {
		if q%syncEvery != 0 {
			continue
		}
		// Alternate minor and full collections, so the generational
		// kinds' remembered sets carry edges across a sync point too.
		tn.col.Collect(len(syncs)%2 == 1)
		d, n, err := liveGraphHash(tn.col)
		if err != nil {
			t.Fatalf("%s, sync %d: %v", kind, len(syncs), err)
		}
		syncs = append(syncs, syncPoint{d, n})
		if bc, ok := tn.col.(*core.BC); ok {
			if err := bc.CheckInvariants(); err != nil {
				t.Fatalf("%s, sync %d: %v", kind, len(syncs), err)
			}
		}
	}
	if tn.failed != nil {
		t.Fatalf("%s: %v", kind, tn.failed)
	}
	return syncs, tn.run.Finish().Checksum, *tn.col.Stats()
}

// TestLiveGraphAgreesAcrossCollectors is the differential check that
// makes collector refactors safe beyond the byte goldens: the same
// allocation history must leave the same live graph behind under every
// collector kind — at every sync point, with ample memory and at a
// paging configuration where BC bookmarks, compacts and falls back to
// its fail-safe — and read back the same data.
func TestLiveGraphAgreesAcrossCollectors(t *testing.T) {
	spec := mutator.PseudoJBB().Scale(0.02)
	for _, tc := range []struct {
		name       string
		heap, phys float64 // × the program's minimum heap
		steal      float64 // fraction of the heap pinned from the start
	}{
		{"unpressured", 3, 12, 0},
		{"paging", 1.2, 1.8, 0.8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			heap := uint64(tc.heap * float64(spec.MinHeap))
			cfg := RunConfig{Program: spec, PhysBytes: uint64(tc.phys * float64(spec.MinHeap)), Seed: 7}
			if tc.steal > 0 {
				cfg.Pressure = SteadyPressure(heap, tc.steal)
			}
			var want []syncPoint
			var wantSum uint64
			for i, kind := range KnownKinds {
				// The live graph does not depend on the heap size, so the
				// copying collectors get room for their reserve where the
				// others run tight, on the same machine.
				cfg.HeapBytes = heap
				if kind == SemiSpace || kind == GenCopy || kind == GenCopyFixed {
					cfg.HeapBytes = max(heap, 3*spec.MinHeap)
				}
				syncs, sum, st := digestRun(t, kind, cfg, 12)
				if kind == BC && tc.steal > 0 && (st.Bookmarked == 0 || st.Compactions == 0 || st.FailSafe == 0) {
					t.Errorf("BC's cooperation went unexercised: %d bookmarked, %d compactions, %d fail-safes",
						st.Bookmarked, st.Compactions, st.FailSafe)
				}
				if i == 0 {
					want, wantSum = syncs, sum
					if len(want) < 4 {
						t.Fatalf("only %d sync points", len(want))
					}
					continue
				}
				if len(syncs) != len(want) {
					t.Fatalf("%s: %d sync points, %s had %d", kind, len(syncs), KnownKinds[0], len(want))
				}
				for j := range syncs {
					if syncs[j] != want[j] {
						t.Fatalf("%s, sync %d: live graph %+v, %s had %+v", kind, j, syncs[j], KnownKinds[0], want[j])
					}
				}
				if sum != wantSum {
					t.Errorf("%s: mutator checksum %#x, %s had %#x", kind, sum, KnownKinds[0], wantSum)
				}
			}
		})
	}
}
