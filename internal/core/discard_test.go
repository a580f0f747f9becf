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
// with no page resident or evicted, so the spaces' residency filter
// passes everything.
func (f *discardFuzz) reshape() {
	c, rng := f.c, f.rng
	f.setBooks(nil, nil)
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

// setBooks overwrites the residency and eviction bit arrays. These are
// the test's only writes that bypass BC's own writers, which count every
// change that can add a discardable page (discardAdds), so this is the
// one place the remembered miss is forgotten by hand.
func (f *discardFuzz) setBooks(resident, evicted []int) {
	c := f.c
	c.resident.ClearAll()
	c.evicted.ClearAll()
	for _, p := range resident {
		c.resident.Set(p)
	}
	for _, p := range evicted {
		c.evicted.Set(p)
	}
	c.residentPg, c.evictedHeapPg = c.resident.Count(), c.evicted.Count()
	c.missCached = false
}

// scatter rewrites the residency and eviction bit arrays: resident pages
// at the given count, some of them also marked evicted, plus — half the
// time — the pages on either side of every region boundary and of the
// nursery frontier.
func (f *discardFuzz) scatter(n int) {
	c, rng := f.c, f.rng
	var resident, evicted []int
	set := func(p int) {
		if p < 0 || p >= c.resident.Len() {
			return
		}
		resident = append(resident, p)
		if rng.Intn(5) == 0 {
			evicted = append(evicted, p)
		}
	}
	for ; n > 0; n-- {
		set(rng.Intn(c.resident.Len()))
	}
	if rng.Intn(2) == 0 {
		for _, b := range append(f.boundaries(), int(c.nursery.Frontier().Page())) {
			for d := -1; d <= 1; d++ {
				set(b + d)
			}
		}
	}
	f.setBooks(resident, evicted)
}

// change makes one change through one of the five writers that can add
// a discardable page: free a superpage, free a large object, reset the
// nursery, set a residency bit, reload an evicted page.
func (f *discardFuzz) change() {
	c, rng := f.c, f.rng
	switch rng.Intn(5) {
	case 0:
		if len(f.super) > 0 {
			i := rng.Intn(len(f.super))
			c.SS.FreeBlock(f.super[i]) // its only block: the superpage goes free
			f.super = slices.Delete(f.super, i, i+1)
		}
	case 1:
		if len(f.large) > 0 {
			i := rng.Intn(len(f.large))
			c.LOS.Free(f.large[i])
			f.large = slices.Delete(f.large, i, i+1)
		}
	case 2:
		c.nursery.Reset()
	case 3:
		c.setResident(mem.PageID(rng.Intn(c.resident.Len())))
	case 4:
		// scatter marks only resident pages evicted, so this clears the
		// evicted bit alone.
		if p := c.evicted.NextSet(rng.Intn(c.resident.Len())); p >= 0 {
			c.reloadBooks(mem.PageID(p))
		}
	}
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
	if err := c.checkEmptyWords(); err != nil {
		return err
	}
	return c.checkCachedMiss()
}

// TestGiveDiscardablesMatchesPerPageOracle is the differential test for
// the word-at-a-time discardable search: over seeded random heap shapes,
// residency books, cursors and excluded pages, the handler's search must
// find the same first page, discard the same pages in the same order,
// and leave the same cursor, credit and counts as the per-page search it
// replaced. The remembered miss is kept across calls: between them the
// heap changes only through BC's and the spaces' own writers, so a miss
// served from memory is checked against the oracle like any other.
// Each configuration also gets the directed cases at the end.
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
			const rounds, calls = 300, 6
			hits := 0
			for round := 0; round < rounds; round++ {
				f.reshape()
				// From almost nothing resident (misses, and hits a long
				// wrap away) to most of the address space.
				f.scatter([]int{0, 1, 3, 40, 600, pages}[rng.Intn(6)])
				// Several calls per shape: each resumes at the cursor the
				// last one left, as consecutive notices do, after one
				// change through a real writer.
				for call := 0; call < calls; call++ {
					if call > 0 {
						f.change()
					}
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
				t.Fatalf("%d of %d searches discarded something", hits, rounds*calls)
			}

			// Directed: one discardable page, an empty nursery page, seen
			// from every kind of cursor.
			c.nursery.Reset()
			only := int(c.nursery.Base().Page()) + 100
			for _, cursor := range []int{0, only, only + 1, only &^ 63, only | 63, pages - 1, pages &^ 63, pages} {
				f.setBooks([]int{only}, nil)
				c.discardCursor = cursor
				if err := f.check(0); err != nil {
					t.Fatalf("single page %d: %v", only, err)
				}
				if (c.residentPg == 0) == cfg.debugNoDiscard {
					t.Fatalf("single page %d from cursor %d: resident count now %d", only, cursor, c.residentPg)
				}
			}
			// Directed: the only candidate is the page under notification.
			// That miss must not be remembered: the next notice, for any
			// other page, takes it.
			f.setBooks([]int{only}, nil)
			c.discardCursor = only
			if err := f.check(mem.PageID(only)); err != nil {
				t.Fatal(err)
			}
			if c.residentPg != 1 || c.discardCursor != 0 {
				t.Fatalf("excluded only candidate: resident count %d, cursor %d; want 1, 0", c.residentPg, c.discardCursor)
			}
			if err := f.check(0); err != nil {
				t.Fatalf("formerly excluded only candidate: %v", err)
			}

			// Directed: a remembered miss, then each writer in turn makes
			// pages discardable, and the next search must find them. Page
			// 0 is never discardable, so every search here excludes
			// nothing that matters.
			missThen := func(what string, write func()) {
				t.Helper()
				if err := f.check(0); err != nil {
					t.Fatalf("%s, before: %v", what, err)
				}
				if !c.missCached {
					t.Fatalf("%s, before: the search missed but nothing was remembered", what)
				}
				write()
				before := c.residentPg
				for { // one-at-a-time takes one page per notice
					n := c.residentPg
					if err := f.check(0); err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					if c.residentPg == n {
						break
					}
				}
				if (c.residentPg < before) == cfg.debugNoDiscard {
					t.Fatalf("%s: %d resident pages before, %d after", what, before, c.residentPg)
				}
			}
			residentPages := func(first, last mem.PageID) {
				for p := first; p <= last; p++ {
					c.setResident(p)
				}
			}
			f.setBooks(nil, nil)
			missThen("set a residency bit", func() { c.setResident(mem.PageID(only)) })
			f.setBooks([]int{only}, []int{only})
			missThen("reload an evicted page", func() { c.reloadBooks(mem.PageID(only)) })
			idx := c.SS.AcquireSuper(c.E.Classes.Class(0), f.node.Kind)
			o := c.SS.AllocInSuper(idx, f.node, 0)
			residentPages(c.SS.PagesOf(idx))
			missThen("free a superpage", func() { c.SS.FreeBlock(o) })
			if o = c.LOS.Alloc(f.data, 3*mem.PageSize/mem.WordSize); o == mem.Nil {
				t.Fatal("no room for a large object")
			}
			residentPages(c.LOS.PagesOf(o))
			missThen("free a large object", func() { c.LOS.Free(o) })
			c.nursery.AllocRaw(3 * mem.PageSize)
			residentPages(c.nursery.Pages())
			missThen("reset the nursery", c.nursery.Reset)

			// Directed: a word straddling the LOS base, every page of it
			// resident — the mature side is empty superpages, the LOS
			// side free pages, and one batch takes both.
			for _, o := range f.large {
				c.LOS.Free(o)
			}
			base := int(c.E.Layout.LOSBase.Page())
			var word []int
			for p := base &^ 63; p < base&^63+64; p++ {
				word = append(word, p)
			}
			f.setBooks(word, nil)
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
