package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/objmodel"
	"bookmarkgc/internal/trace"
)

// discardLog records the pages discardPage hands back, in order.
type discardLog struct {
	trace.Nop
	pages []mem.PageID
}

func (d *discardLog) Point(e trace.Event, page, _ int64) {
	if e == trace.EvPageDiscarded {
		d.pages = append(d.pages, mem.PageID(page))
	}
}

// oracleDiscardable is the per-page definition the word predicate
// replaced: resident, not leaving, and empty in the space that owns it.
func oracleDiscardable(c *BC, p mem.PageID) bool {
	nursery, mature, los := c.emptyPerPage(p)
	return !c.cfg.debugNoDiscard && c.resident.Test(int(p)) && !c.evicted.Test(int(p)) && (nursery || mature || los)
}

// oracleGive is giveDiscardables one page at a time: search from the
// cursor to the end, wrap to the pages below it, then take every
// discardable page of the hit's bitmap word in ascending order (only the
// hit itself without aggressive discard). It changes nothing.
func oracleGive(c *BC, exclude mem.PageID) (discarded []mem.PageID, cursor int) {
	ok := func(i int) bool { return mem.PageID(i) != exclude && oracleDiscardable(c, mem.PageID(i)) }
	first, limit := -1, c.resident.Len()
	for i := c.discardCursor; i < limit && first < 0; i++ {
		if ok(i) {
			first = i
		}
	}
	for i := 0; i < c.discardCursor && first < 0; i++ {
		if ok(i) {
			first = i
		}
	}
	if first < 0 {
		return nil, 0
	}
	if c.cfg.NoAggressiveDiscard {
		return []mem.PageID{mem.PageID(first)}, first + 1
	}
	for i := first &^ 63; i < first&^63+64 && i < limit; i++ {
		if ok(i) {
			discarded = append(discarded, mem.PageID(i))
		}
	}
	return discarded, first + 1
}

// discardFuzz is one BC whose heap the differential test reshapes at
// random between calls of giveDiscardables.
type discardFuzz struct {
	c     *BC
	log   *discardLog
	rng   *rand.Rand
	node  *objmodel.Type
	data  *objmodel.Type
	super []objmodel.Ref // one block per superpage the test acquired
	large []objmodel.Ref
}

func newDiscardFuzz(t *testing.T, seed int64, cfg Config) *discardFuzz {
	// 5 MB: the layout starts 4 pages into a bitmap word and no region is
	// a multiple of 64 pages, so every region boundary — the LOS base
	// included — falls mid-word.
	_, c, node, _, dataArr := newBC(t, 512, 5, cfg)
	f := &discardFuzz{c: c, log: &discardLog{}, rng: rand.New(rand.NewSource(seed)), node: node, data: dataArr}
	c.E.Trace = f.log
	for _, b := range f.boundaries() {
		if b%64 == 0 {
			t.Fatalf("region boundary at page %d is word-aligned; the test wants them mid-word", b)
		}
	}
	return f
}

// boundaries returns the first page of each heap region and the page
// past its end.
func (f *discardFuzz) boundaries() []int {
	l := f.c.E.Layout
	var out []int
	for _, a := range []mem.Addr{l.Bump0Base, l.Bump0End, l.MatureBase, l.MatureEnd, l.LOSBase, l.LOSEnd} {
		out = append(out, int(a.Page()))
	}
	return out
}

// reshape moves the nursery frontier, acquires and releases superpages
// across classes, and allocates and frees large-object runs. It runs
// with no page marked evicted, so the spaces' residency filter passes
// everything.
func (f *discardFuzz) reshape() {
	c, rng := f.c, f.rng
	c.evicted.ClearAll()
	for n := rng.Intn(4); n > 0; n-- {
		if c.nursery.AllocRaw(rng.Intn(6*mem.PageSize)) == mem.Nil || rng.Intn(6) == 0 {
			c.nursery.Reset()
		}
	}
	for n := rng.Intn(6); n > 0; n-- {
		if rng.Intn(2) == 0 || len(f.super) == 0 {
			cl := c.E.Classes.Class(rng.Intn(c.E.Classes.Len()))
			if idx := c.SS.AcquireSuper(cl, f.node.Kind); idx >= 0 {
				f.super = append(f.super, c.SS.AllocInSuper(idx, f.node, 0))
			}
		} else {
			i := rng.Intn(len(f.super))
			c.SS.FreeBlock(f.super[i])
			f.super = slices.Delete(f.super, i, i+1)
		}
	}
	for n := rng.Intn(4); n > 0; n-- {
		if rng.Intn(2) == 0 || len(f.large) == 0 {
			if o := c.LOS.Alloc(f.data, (rng.Intn(6*mem.PageSize)+mem.PageSize)/mem.WordSize); o != mem.Nil {
				f.large = append(f.large, o)
			}
		} else {
			i := rng.Intn(len(f.large))
			c.LOS.Free(f.large[i])
			f.large = slices.Delete(f.large, i, i+1)
		}
	}
}

// scatter rewrites the residency and eviction bit arrays: resident pages
// at the given count, some of them also marked evicted, plus — half the
// time — the pages on either side of every region boundary and of the
// nursery frontier.
func (f *discardFuzz) scatter(resident int) {
	c, rng := f.c, f.rng
	c.resident.ClearAll()
	c.evicted.ClearAll()
	set := func(p int) {
		if p < 0 || p >= c.resident.Len() {
			return
		}
		c.resident.Set(p)
		if rng.Intn(5) == 0 {
			c.evicted.Set(p)
		}
	}
	for ; resident > 0; resident-- {
		set(rng.Intn(c.resident.Len()))
	}
	if rng.Intn(2) == 0 {
		for _, b := range append(f.boundaries(), int(c.nursery.Frontier().Page())) {
			for d := -1; d <= 1; d++ {
				set(b + d)
			}
		}
	}
	c.residentPg = c.resident.Count()
}

// check runs giveDiscardables against the oracle from the current state.
func (f *discardFuzz) check(exclude mem.PageID) error {
	c := f.c
	for p := 0; p < c.resident.Len(); p++ {
		if got, want := c.pageDiscardable(mem.PageID(p)), oracleDiscardable(c, mem.PageID(p)); got != want {
			return fmt.Errorf("pageDiscardable(%d) = %v, oracle says %v", p, got, want)
		}
	}
	want, wantCursor := oracleGive(c, exclude)
	wantCredit := c.discardCredit + max(0, len(want)-1)
	wantResident := c.residentPg - len(want)
	batches := c.E.Counters.Histogram(trace.HDiscardBatch)
	f.log.pages = f.log.pages[:0]
	from := c.discardCursor

	n := c.giveDiscardables(exclude)

	state := fmt.Sprintf("cursor %d, exclude %d", from, exclude)
	if n != len(want) || !slices.Equal(f.log.pages, want) {
		return fmt.Errorf("%s: discarded %v (returned %d), oracle says %v", state, f.log.pages, n, want)
	}
	if c.discardCursor != wantCursor {
		return fmt.Errorf("%s: cursor moved to %d, oracle says %d", state, c.discardCursor, wantCursor)
	}
	if c.discardCredit != wantCredit {
		return fmt.Errorf("%s: credit %d, oracle says %d", state, c.discardCredit, wantCredit)
	}
	for _, p := range want {
		if c.resident.Test(int(p)) {
			return fmt.Errorf("%s: discarded page %d still marked resident", state, p)
		}
	}
	if c.residentPg != wantResident || c.resident.Count() != wantResident {
		return fmt.Errorf("%s: resident count %d (bitmap %d), want %d", state, c.residentPg, c.resident.Count(), wantResident)
	}
	after := c.E.Counters.Histogram(trace.HDiscardBatch)
	if n > 0 && (after.Count != batches.Count+1 || after.Sum != batches.Sum+uint64(n)) || n == 0 && after.Count != batches.Count {
		return fmt.Errorf("%s: batch histogram went %d/%d -> %d/%d for a batch of %d",
			state, batches.Count, batches.Sum, after.Count, after.Sum, n)
	}
	return c.checkEmptyWords()
}

// TestGiveDiscardablesMatchesPerPageOracle is the differential test for
// the word-at-a-time discardable search: over seeded random heap shapes,
// residency books, cursors and excluded pages, the handler's search must
// find the same first page, discard the same pages in the same order,
// and leave the same cursor, credit and counts as the per-page search it
// replaced. Each configuration also gets the directed cases at the end.
func TestGiveDiscardablesMatchesPerPageOracle(t *testing.T) {
	for name, cfg := range map[string]Config{
		"aggressive":    {},
		"one-at-a-time": {NoAggressiveDiscard: true},
		"no-discard":    {debugNoDiscard: true},
		"resize-only":   {ResizeOnly: true},
	} {
		t.Run(name, func(t *testing.T) {
			f := newDiscardFuzz(t, 23, cfg)
			c, rng := f.c, f.rng
			pages := c.resident.Len()
			hits := 0
			for round := 0; round < 300; round++ {
				f.reshape()
				// From almost nothing resident (misses, and hits a long
				// wrap away) to most of the address space.
				f.scatter([]int{0, 1, 3, 40, 600, pages}[rng.Intn(6)])
				// Several calls per shape: each resumes at the cursor the
				// last one left, as consecutive notices do.
				for call := 0; call < 4; call++ {
					if rng.Intn(3) == 0 {
						c.discardCursor = rng.Intn(pages + 1)
					}
					before := c.residentPg
					if err := f.check(mem.PageID(rng.Intn(pages))); err != nil {
						t.Fatalf("round %d call %d: %v", round, call, err)
					}
					if c.residentPg < before {
						hits++
					}
				}
			}
			if (hits == 0) != cfg.debugNoDiscard {
				t.Fatalf("%d of 1200 searches discarded something", hits)
			}

			// Directed: one discardable page, an empty nursery page, seen
			// from every kind of cursor.
			c.nursery.Reset()
			only := int(c.nursery.Base().Page()) + 100
			for _, cursor := range []int{0, only, only + 1, only &^ 63, only | 63, pages - 1, pages &^ 63, pages} {
				c.resident.ClearAll()
				c.evicted.ClearAll()
				c.resident.Set(only)
				c.residentPg = 1
				c.discardCursor = cursor
				if err := f.check(0); err != nil {
					t.Fatalf("single page %d: %v", only, err)
				}
				if (c.residentPg == 0) == cfg.debugNoDiscard {
					t.Fatalf("single page %d from cursor %d: resident count now %d", only, cursor, c.residentPg)
				}
			}
			// Directed: the only candidate is the page under notification.
			c.resident.Set(only)
			c.residentPg = 1
			c.discardCursor = only
			if err := f.check(mem.PageID(only)); err != nil {
				t.Fatal(err)
			}
			if c.residentPg != 1 || c.discardCursor != 0 {
				t.Fatalf("excluded only candidate: resident count %d, cursor %d; want 1, 0", c.residentPg, c.discardCursor)
			}
			// Directed: a word straddling the LOS base, every page of it
			// resident — the mature side is empty superpages, the LOS
			// side free pages, and one batch takes both.
			for _, o := range f.large {
				c.LOS.Free(o)
			}
			base := int(c.E.Layout.LOSBase.Page())
			c.resident.ClearAll()
			c.evicted.ClearAll()
			for p := base &^ 63; p < base&^63+64; p++ {
				c.resident.Set(p)
			}
			c.residentPg = 64
			c.discardCursor = base
			if err := f.check(0); err != nil {
				t.Fatalf("word straddling the LOS base: %v", err)
			}
			if name == "aggressive" && c.residentPg != 0 {
				t.Fatalf("word straddling the LOS base: %d of 64 pages left resident", c.residentPg)
			}
		})
	}
}
