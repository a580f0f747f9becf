package core

import (
	"testing"

	"bookmarkgc/internal/gc"
)

// TestGraftedStackStaysWithItsCollection: BC's eviction handler may push
// to the trace's gray stack after the sweep, up to the end of the
// collection (the end-of-collection hook runs in that window). Until the
// collection ends no other environment may be handed that stack, and
// when it comes back to the process's free list it holds nothing.
func TestGraftedStackStaysWithItsCollection(t *testing.T) {
	_, c, node, _, _ := newBC(t, 64, 8, Config{})
	_, other, _, _, _ := newBC(t, 64, 8, Config{})
	for range 64 {
		c.Roots().Add(c.Alloc(node, 0))
	}
	// takeUpTo draws up to n stacks from the free list as other would;
	// put returns them.
	takeUpTo := func(n int, until *gc.WorkList) []*gc.WorkList {
		var ws []*gc.WorkList
		for range n {
			w := other.E.GetWorkList()
			ws = append(ws, w)
			if w == until {
				break
			}
		}
		return ws
	}
	put := func(ws []*gc.WorkList) {
		for _, w := range ws {
			other.E.PutWorkList(w)
		}
	}

	for _, tc := range []struct {
		name    string
		collect func()
	}{
		{"full", func() { c.Collect(true) }},
		{"fail-safe", c.failSafe},
	} {
		var grafted *gc.WorkList
		c.OnCollectionEnd(func() {
			if c.curWork == nil {
				return // a nursery collection: no trace to graft onto
			}
			grafted = c.curWork
			ws := takeUpTo(64, grafted)
			put(ws)
			for _, w := range ws {
				if w == grafted {
					t.Errorf("%s: another environment was handed the stack of a collection in progress", tc.name)
				}
			}
			// What a bookmark taken by an eviction notice here does.
			grafted.Push(c.Roots().Get(0))
		})
		tc.collect()
		if grafted == nil {
			t.Fatalf("%s: the collection ran no trace", tc.name)
		}
		ws := takeUpTo(1024, grafted)
		if ws[len(ws)-1] != grafted {
			t.Errorf("%s: the collection's stack was not retired when it ended", tc.name)
		} else if n := grafted.Len(); n != 0 {
			t.Errorf("%s: the retired stack holds %d entries", tc.name, n)
		}
		put(ws)
	}
}
