package core

import (
	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/trace"
	"bookmarkgc/internal/vmm"
)

// This file is BC's defense against a kernel whose notifications are
// lost, late, repeated, or forged. The paper assumes lossless queueable
// real-time signals (§4.1); a production runtime cannot. The degradation
// ladder is:
//
//  1. individual guards reject notifications the kernel could not
//     legitimately have sent (stale, duplicate, spurious) — see
//     cooperate.go;
//  2. a residency audit at every collection start cross-checks BC's bit
//     array (§3.3.1) against the kernel and repairs drift: a page that
//     left silently degrades the whole heap to fail-safe treatment
//     (booksValid=false — collections touch evicted pages) until no page
//     is evicted, because the departed page's outgoing references were
//     never bookmarked;
//  3. once silent evictions pass a threshold the kernel is declared
//     untrusted, permanently for this process: bookmark state can never
//     be rebuilt on evidence this bad, so every full collection becomes
//     the §3.5 fail-safe and BC otherwise behaves like the resize-only
//     variant.

// silentEvictionLimit is how many silently-evicted pages BC tolerates
// before concluding the kernel does not deliver notifications at all. A
// few lost signals merely invalidate the books until the heap is clean
// again; a kernel losing dozens will never sustain the bookmark
// invariant, so BC stops trying.
const silentEvictionLimit = 32

// untrusted reports whether notifications have been declared unreliable.
func (c *BC) untrusted() bool { return c.silentEvictions >= silentEvictionLimit }

// Untrusted reports whether BC has stopped trusting the kernel's
// notifications (exported for harnesses and diagnostics).
func (c *BC) Untrusted() bool { return c.untrusted() }

// auditResidency cross-checks BC's page books against the kernel at
// collection start and repairs both directions of drift. It runs before
// any marking, so no collection ever acts on books the kernel has
// silently invalidated. The checks are peeks (State/Protected read the
// page table, not the page), so a clean audit costs no simulated time.
func (c *BC) auditResidency() {
	// Pages BC believes resident that the kernel evicted without a word.
	for i := c.resident.NextSet(0); i >= 0; i = c.resident.NextSet(i + 1) {
		if c.E.Proc.State(mem.PageID(i)) == vmm.Evicted {
			c.noteSilentEviction(mem.PageID(i))
		}
	}
	// Pages BC believes evicted that are resident and unprotected: they
	// came back (or the eviction was cancelled) and the reload
	// notification never arrived. Protected pages are excluded — a page
	// processed for eviction stays protected until it leaves or faults,
	// so protection marks a legitimately pending eviction.
	for i := c.evicted.NextSet(0); i >= 0; i = c.evicted.NextSet(i + 1) {
		p := mem.PageID(i)
		if c.E.Proc.State(p) == vmm.Resident && !c.E.Proc.Protected(p) {
			c.E.Trace.Point(trace.EvResidencyRepaired, int64(p), 1)
			c.E.Counters.Inc(trace.CUnnotifiedReloads)
			c.reloadBooks(p)
		}
	}
}

// noteSilentEviction records that page p left memory without an eviction
// notification: fix the bit array, and degrade to fail-safe treatment —
// p's outgoing references were never counted and its objects never
// bookmarked, so the in-memory-collection invariant (§3.4.1) no longer
// holds anywhere until the heap has no evicted pages.
func (c *BC) noteSilentEviction(p mem.PageID) {
	c.noteEvicted(p)
	c.silentEvictions++
	c.invalidateBooks()
	c.E.Trace.Point(trace.EvResidencyRepaired, int64(p), 0)
	c.E.Counters.Inc(trace.CSilentEvictions)
}
