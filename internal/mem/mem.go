// Package mem provides the word-addressed simulated address space that the
// entire runtime is built on: byte addresses, page and superpage geometry,
// and the backing store for a process's heap words.
//
// Every word read or written through a Space is reported to the virtual
// memory manager, which is how page residency, reference bits, and page
// faults are modeled. Code that bypasses the touch does not exist: the
// collectors can only reach heap memory through Space, so "who touches
// which page" is an emergent property of the algorithms.
//
// Backing storage is one process-wide pool of page bodies (DESIGN.md
// §15): the per-page table points at each page's body (nil meaning
// "never written: reads as zero", unless an evicted page's nonzero
// words are stored as a record: swap.go), and a discarded, emptied,
// evicted or released body goes back to the pool for any Space to
// reuse. The VMM's hot residency bits live in a side byte array
// (PageFlags) so the common touch — a resident, unprotected page — is an
// inline flag check with no interface dispatch and no Go allocation.
package mem

import (
	"fmt"
	"runtime"
	"time"
)

// Fundamental geometry. These mirror the paper's platform: 4 KB pages
// grouped into page-aligned superpages of four contiguous pages (16 KB).
const (
	WordSize   = 8                   // bytes per word
	PageSize   = 4096                // bytes per page
	PageShift  = 12                  // log2(PageSize)
	WordsPage  = PageSize / WordSize // words per page
	SuperPages = 4                   // pages per superpage
	SuperSize  = PageSize * SuperPages
	SuperShift = 14 // log2(SuperSize)
)

// Addr is a byte address in a process's simulated virtual address space.
// The zero Addr is the null reference; the first page of every space is
// reserved and never allocated so that 0 is never a valid object.
type Addr uint64

// Nil is the null reference.
const Nil Addr = 0

// PageID identifies a page within one address space (Addr / PageSize).
type PageID uint64

// Page returns the page containing a.
func (a Addr) Page() PageID { return PageID(a >> PageShift) }

// PageBase returns the first address of the page containing a.
func (a Addr) PageBase() Addr { return a &^ (PageSize - 1) }

// SuperBase returns the first address of the superpage containing a.
// This is the constant-time bit-masking access to superpage headers that
// the paper relies on (§3.4).
func (a Addr) SuperBase() Addr { return a &^ (SuperSize - 1) }

// PageAddr returns the first address of page p.
func PageAddr(p PageID) Addr { return Addr(p) << PageShift }

// WordIndex returns the word offset of a within its space.
func (a Addr) WordIndex() uint64 { return uint64(a) / WordSize }

// Aligned reports whether a is word-aligned.
func (a Addr) Aligned() bool { return a%WordSize == 0 }

// PagesIn returns the IDs of all pages overlapping [a, a+size).
func PagesIn(a Addr, size uint64) (first, last PageID) {
	if size == 0 {
		return a.Page(), a.Page()
	}
	return a.Page(), (a + Addr(size) - 1).Page()
}

// RoundUpPage rounds n up to a multiple of PageSize.
func RoundUpPage(n uint64) uint64 { return (n + PageSize - 1) &^ (PageSize - 1) }

// RoundUpWord rounds n up to a multiple of WordSize.
func RoundUpWord(n uint64) uint64 { return (n + WordSize - 1) &^ (WordSize - 1) }

// A FaultToucher services the slow half of a word access: the page was
// not simply resident and unprotected (fresh, evicted, or protected), so
// faults, notifications, and queue maintenance are needed. The virtual
// memory manager implements it. It is called after the word's clock cost
// has been charged, exactly as the VMM's full Touch observes the world
// after its own clock advance.
type FaultToucher interface {
	FaultTouch(p PageID, write bool)
}

// Page flag bits for the Space's side array (PageFlags). The flags are
// owned by the machine's VMM — the Space only reads them on the touch
// fast path and sets the referenced bit (clearing a pending voluntary
// surrender) on a resident, unprotected access, mirroring what the VMM's
// Touch would do. A page with neither state bit set is fresh (never
// touched, or discarded).
const (
	PFResident    uint8 = 1 << 0 // occupies a physical frame
	PFEvicted     uint8 = 1 << 1 // on the swap device
	PFProtected   uint8 = 1 << 2 // mprotect(PROT_NONE)
	PFReferenced  uint8 = 1 << 3 // clock-algorithm reference bit
	PFSurrendered uint8 = 1 << 4 // vm_relinquish'd; evict without notice
)

// pfFastMask selects the bits that must equal PFResident for the inline
// fast path: resident, not evicted, not protected.
const pfFastMask = PFResident | PFEvicted | PFProtected

// Space is the backing store for one process's virtual address space.
// Backing bodies are allocated lazily on first write and read as zero
// before that, so host memory tracks the pages actually used rather than
// the (large) virtual region.
type Space struct {
	// bodies is the hot page table: a direct pointer to each page's word
	// array (nil = unmaterialized, or stored in swap), each drawn from
	// the pool.
	bodies []*[WordsPage]uint64
	size   Addr // bytes

	// Every word access advances clock by wordCost inline, then either
	// sets the referenced bit in flags (resident, unprotected page) or
	// falls through to ft.FaultTouch. The flags array is maintained by
	// ft's VMM; see PageFlags.
	clock    *Clock
	wordCost time.Duration
	ft       FaultToucher
	flags    []uint8

	// own shares bodies and flags, holds the records of swapped-out
	// pages (SwapOut) and lists the tables the Space has lent
	// (NewBitmap, LendInt32s); Release gives them all back, and so does
	// the Go collector if the Space is dropped.
	own *owner
}

// NewSpace creates a space of the given size in bytes (rounded up to a
// whole number of pages) whose accesses cost wordCost each on clock and
// fault to ft.
func NewSpace(size uint64, clock *Clock, wordCost time.Duration, ft FaultToucher) *Space {
	s := new(Space)
	s.init(size, clock, wordCost, ft)
	return s
}

// Reuse makes s, a space Release has released, a new space as NewSpace
// makes one, for a holder that recycles its space with itself (a
// vmm.Proc). It panics on a space not released.
func (s *Space) Reuse(size uint64, clock *Clock, wordCost time.Duration, ft FaultToucher) {
	if s.own != nil {
		panic("mem: reusing a space that was not released")
	}
	s.init(size, clock, wordCost, ft)
}

// init makes s a fresh space of size bytes.
func (s *Space) init(size uint64, clock *Clock, wordCost time.Duration, ft FaultToucher) {
	size = RoundUpPage(size)
	npg := size / PageSize
	bodies, flags := TakeTable(&freeBodyTables, npg), TakeTable(&freeFlagTables, npg)
	*s = Space{
		bodies:   bodies,
		flags:    flags,
		size:     Addr(size),
		clock:    clock,
		wordCost: wordCost,
		ft:       ft,
		own:      newOwner(bodies, flags),
	}
	// The reserved null page can never satisfy the fast-path flag test
	// (both state bits set is otherwise impossible), so a page-0 access
	// always reaches the slow path's full address check.
	if npg > 0 {
		s.flags[0] = PFEvicted | PFProtected
	}
}

// Release returns the space's bodies to the process-wide pool, and its
// body and flag tables and the tables it lent to theirs. Only call it
// when the space is dead: bodies and tables go to other Spaces, which
// overwrite them, so no holder of PageFlags or of a lent table may use
// it again either. A space dropped without Release returns the same
// when the Go collector finds it unreachable. A second Release does
// nothing.
func (s *Space) Release() {
	if s.own == nil {
		return
	}
	// Disarm the owner first: its finalizer would otherwise empty the
	// body table after another Space has taken it.
	runtime.SetFinalizer(s.own, nil)
	s.own.release()
	s.own = nil
	s.bodies, s.flags = nil, nil
}

// NewBitmap returns a bitmap of n bits, all clear, whose words s lends:
// they go back with s.Release, so the bitmap dies with the space. It is
// a value, for its holder to keep in place.
func (s *Space) NewBitmap(n int) Bitmap {
	w := TakeTable(&freeWordTables, uint64(n+63)/64)
	s.own.lentWords = append(s.own.lentWords, w)
	return Bitmap{w: w, n: n}
}

// LendInt32s returns a table of n zeros that s takes back at Release.
func (s *Space) LendInt32s(n int) []int32 {
	t := TakeTable(&freeInt32Tables, uint64(n))
	s.own.lentInt32s = append(s.own.lentInt32s, t)
	return t
}

// PageFlags exposes the per-page flag side array for the VMM to maintain.
// Entry p holds the PF* bits of page p.
func (s *Space) PageFlags() []uint8 { return s.flags }

// Size returns the size of the space in bytes.
func (s *Space) Size() Addr { return s.size }

// Pages returns the number of pages in the space.
func (s *Space) Pages() int { return int(s.size >> PageShift) }

// check validates an address; out-of-line badAccess keeps the hot
// callers free of panic formatting.
func (s *Space) check(a Addr) {
	if a >= s.size || a < PageSize || a&(WordSize-1) != 0 {
		s.badAccess(a)
	}
}

//go:noinline
func (s *Space) badAccess(a Addr) {
	if a >= s.size || !a.Aligned() {
		panic(fmt.Sprintf("mem: bad address %#x (space size %#x)", a, s.size))
	}
	panic(fmt.Sprintf("mem: access to reserved null page at %#x", a))
}

// materialize installs a zeroed body from the pool as page p's backing.
func (s *Space) materialize(p PageID) *[WordsPage]uint64 {
	b := newBody()
	s.bodies[p] = b
	return b
}

// touch charges one word access to page p: clock cost first (due events
// fire now, and may change p's state — eviction under pressure), then
// the residency check against the post-event flags, exactly as the VMM's
// Touch orders its own clock advance and state switch.
func (s *Space) touch(p PageID, write bool) {
	s.clock.Advance(s.wordCost)
	if f := s.flags[p]; f&pfFastMask == PFResident {
		s.flags[p] = (f | PFReferenced) &^ PFSurrendered
	} else {
		s.ft.FaultTouch(p, write)
	}
}

// ReadWord reads the word at a, touching its page. Every non-trivial case
// (an event due within this access, page not resident-unprotected, bad
// address) sits behind one cold noinline call,
// so the resident-page common case is a short straight line — a clock
// add, a flag update, and the word load. It is still one direct call per
// access: at inline cost 143 against a budget of 80 the compiler inlines
// it nowhere (nor WriteWord or ReadWordPair).
func (s *Space) ReadWord(a Addr) uint64 {
	c := s.clock
	p := uint64(a) >> PageShift
	if uint64(a)&(WordSize-1) != 0 || c.now+s.wordCost >= c.nextDue || s.flags[p]&pfFastMask != PFResident {
		return s.readSlow(a)
	}
	c.now += s.wordCost
	s.flags[p] = (s.flags[p] | PFReferenced) &^ PFSurrendered
	if arr := s.bodies[p]; arr != nil {
		return arr[(uint64(a)>>3)&(WordsPage-1)]
	}
	return 0
}

//go:noinline
func (s *Space) readSlow(a Addr) uint64 {
	s.check(a)
	p := a.Page()
	s.touch(p, false)
	if arr := s.bodies[p]; arr != nil {
		return arr[(uint64(a)>>3)&(WordsPage-1)]
	}
	return 0
}

// ReadWordPair performs two consecutive reads of the word at a — the
// header-decode pattern (type ID then array length) — charging both
// accesses. When no event can fire inside the two-access window the
// values are necessarily identical and one load suffices; otherwise the
// two reads run in full, preserving any state change between them.
func (s *Space) ReadWordPair(a Addr) (uint64, uint64) {
	c := s.clock
	p := uint64(a) >> PageShift
	if uint64(a)&(WordSize-1) != 0 || c.now+2*s.wordCost >= c.nextDue || s.flags[p]&pfFastMask != PFResident {
		return s.ReadWord(a), s.ReadWord(a)
	}
	c.now += 2 * s.wordCost
	s.flags[p] = (s.flags[p] | PFReferenced) &^ PFSurrendered
	if arr := s.bodies[p]; arr != nil {
		v := arr[(uint64(a)>>3)&(WordsPage-1)]
		return v, v
	}
	return 0, 0
}

// WriteWord writes the word at a, touching its page for writing.
func (s *Space) WriteWord(a Addr, v uint64) {
	c := s.clock
	p := uint64(a) >> PageShift
	if uint64(a)&(WordSize-1) != 0 || c.now+s.wordCost >= c.nextDue || s.flags[p]&pfFastMask != PFResident {
		s.writeSlow(a, v)
		return
	}
	c.now += s.wordCost
	s.flags[p] = (s.flags[p] | PFReferenced) &^ PFSurrendered
	arr := s.bodies[p]
	if arr == nil {
		if v == 0 {
			return // never-written pages read as zero; stay lazy
		}
		arr = s.materialize(PageID(p))
	}
	arr[(uint64(a)>>3)&(WordsPage-1)] = v
}

//go:noinline
func (s *Space) writeSlow(a Addr, v uint64) {
	s.check(a)
	p := a.Page()
	s.touch(p, true)
	arr := s.bodies[p]
	if arr == nil {
		if v == 0 {
			return
		}
		arr = s.materialize(p)
	}
	arr[(uint64(a)>>3)&(WordsPage-1)] = v
}

// OpenWindow opens a window of n consecutive accesses to the page of a —
// the shape of the mark-bit pattern (read status; maybe read it again
// and write it back) and of a mutator work step (header, header, datum,
// and perhaps the same again ending in a write). When ok, the first
// access — a read of the word at a — has been charged, and body is the
// page's word array (nil: never written, every word reads as zero; see
// BodyWord). The caller may then make up to n-1 further accesses to the
// same page: it loads a word straight from body and charges the load
// with ChargeReads, and it stores with WindowWrite, which must be the
// window's last access (the store may give the page a body). Or it stops
// early. Inside the window no clock event can fire, so no handler runs
// and the page cannot change state: each further access would pass the
// same checks and repeat the same flag update, which is why it needs no
// more than its clock charge and its load or store. ok is false when the
// n-access window is not guaranteed event-free on the fast path; nothing
// is charged then and the caller must issue the exact per-access
// ReadWord/WriteWord sequence, which preserves any state change an event
// could cause mid-sequence. n may overestimate the accesses the caller
// ends up making in the window — because it stops early, or because it
// finds the rest of its sequence lies on another page and finishes with
// ordinary accesses: that only refuses some windows that could have been
// batched.
//
// body is valid only until the next clock event: ForgetPages hands a
// discarded page's body to the pool, from which any Space — on any
// goroutine of a parallel sweep — may take it at once. Callers hold it
// only inside the event-free window.
func (s *Space) OpenWindow(a Addr, n int) (body *[WordsPage]uint64, ok bool) {
	p := a.Page()
	if uint64(a)&(WordSize-1) != 0 || !s.rangeFast(p, uint64(n)) {
		return nil, false
	}
	s.clock.now += s.wordCost
	s.flags[p] = (s.flags[p] | PFReferenced) &^ PFSurrendered
	return s.bodies[p], true
}

// BodyWord returns the word at a in body, the word array of a's page as
// OpenWindow returned it (nil reads as zero). It charges nothing.
func BodyWord(body *[WordsPage]uint64, a Addr) uint64 {
	if body == nil {
		return 0
	}
	return body[(uint64(a)>>3)&(WordsPage-1)]
}

// ChargeReads charges k further reads inside the window OpenWindow
// opened: loads from its body, or repeats of a word the caller already
// holds, since nothing on the page can have changed but by the window's
// own last access. Call only after OpenWindow returned ok, for at most
// n-1 accesses in all.
func (s *Space) ChargeReads(k int) {
	s.clock.now += time.Duration(k) * s.wordCost
}

// WindowWrite writes the word at a, which must be word-aligned and lie
// on the page of the open window, as the last of its n-1 further
// accesses. Like WriteWord it leaves a never-written page unmaterialized
// when v is zero.
func (s *Space) WindowWrite(a Addr, v uint64) {
	s.clock.now += s.wordCost
	p := a >> PageShift
	arr := s.bodies[p]
	if arr == nil {
		if v == 0 {
			return
		}
		arr = s.materialize(PageID(p))
	}
	arr[(uint64(a)>>3)&(WordsPage-1)] = v
}

// ReadAddr reads the word at a as an address.
func (s *Space) ReadAddr(a Addr) Addr { return Addr(s.ReadWord(a)) }

// WriteAddr writes an address-valued word.
func (s *Space) WriteAddr(a Addr, v Addr) { s.WriteWord(a, uint64(v)) }

// rangeFast reports whether n consecutive word accesses to page p can be
// batched — the one guard behind OpenWindow, ZeroRange and CopyWords:
// the page is resident and unprotected, and no clock event can fire
// anywhere in the window — so the per-word loop could not have observed
// (or caused) any state change the batch would miss.
func (s *Space) rangeFast(p PageID, n uint64) bool {
	return s.clock.eventFreeUntil(time.Duration(n)*s.wordCost) &&
		s.flags[p]&pfFastMask == PFResident
}

// ZeroRange zeroes [a, a+n) (n bytes, word-aligned), touching each page
// once per word written. Used by allocators when recycling memory.
// Same-page runs with no clock event due in the window collapse into one
// batched flag update and clock advance.
func (s *Space) ZeroRange(a Addr, n uint64) {
	n = RoundUpWord(n)
	end := a + Addr(n)
	for a < end {
		chunk := a.PageBase() + PageSize
		if chunk > end {
			chunk = end
		}
		words := uint64(chunk-a) / WordSize
		if !s.rangeFast(a.Page(), words) {
			for ; a < chunk; a += WordSize {
				s.WriteWord(a, 0)
			}
			continue
		}
		s.check(a)
		p := a.Page()
		s.clock.now += time.Duration(words) * s.wordCost
		s.flags[p] = (s.flags[p] | PFReferenced) &^ PFSurrendered
		if arr := s.bodies[p]; arr != nil {
			lo := (a & (PageSize - 1)) >> 3
			clear(arr[lo : lo+Addr(words)])
		}
		a = chunk
	}
}

// CopyWords copies n bytes (word-aligned) from src to dst through the
// space, charging each word's read and write exactly as the equivalent
// ReadWord/WriteWord loop would. Runs where both pages are fast and no
// clock event is due within the whole 2n-access window are batched; any
// other case — including src and dst sharing a page, where the loop's
// interleaved word order is observable — falls back to the per-word loop.
func (s *Space) CopyWords(dst, src Addr, n uint64) {
	n = RoundUpWord(n)
	for n > 0 {
		chunk := n
		if r := PageSize - uint64(src&(PageSize-1)); r < chunk {
			chunk = r
		}
		if r := PageSize - uint64(dst&(PageSize-1)); r < chunk {
			chunk = r
		}
		words := chunk / WordSize
		sp, dp := src.Page(), dst.Page()
		if sp == dp || !s.rangeFast(sp, 2*words) || s.flags[dp]&pfFastMask != PFResident {
			for end := src + Addr(chunk); src < end; src, dst = src+WordSize, dst+WordSize {
				s.WriteWord(dst, s.ReadWord(src))
			}
			n -= chunk
			continue
		}
		s.check(src)
		s.check(dst)
		s.clock.now += time.Duration(2*words) * s.wordCost
		s.flags[sp] = (s.flags[sp] | PFReferenced) &^ PFSurrendered
		s.flags[dp] = (s.flags[dp] | PFReferenced) &^ PFSurrendered
		s.copyBodies(dst, src, words)
		src += Addr(chunk)
		dst += Addr(chunk)
		n -= chunk
	}
}

// copyBodies moves words between in-page runs, preserving the lazy
// materialization a WriteWord loop would produce: an all-zero source run
// never materializes the destination.
func (s *Space) copyBodies(dst, src Addr, words uint64) {
	di := (dst & (PageSize - 1)) >> 3
	da := s.bodies[dst.Page()]
	sa := s.bodies[src.Page()]
	if sa == nil {
		if da != nil {
			clear(da[di : di+Addr(words)])
		}
		return
	}
	si := (src & (PageSize - 1)) >> 3
	sw := sa[si : si+Addr(words)]
	if da == nil {
		zero := true
		for _, w := range sw {
			if w != 0 {
				zero = false
				break
			}
		}
		if zero {
			return
		}
		copy(s.materialize(dst.Page())[di:di+Addr(words)], sw)
		return
	}
	copy(da[di:di+Addr(words)], sw)
}

// PeekWord reads a word without touching the page: no clock advance, no
// page flag, no fault. Its callers account for the access themselves
// (the mark engine tallies and replays it) or must charge nothing at all
// (heap verifiers, tests). Everything else uses ReadWord. A swapped-out
// page's word is read from its record.
func (s *Space) PeekWord(a Addr) uint64 {
	s.check(a)
	if arr := s.bodies[a.Page()]; arr != nil {
		return arr[(a&(PageSize-1))>>3]
	}
	return s.recordWord(a)
}

// PokeWord is PeekWord's write: it stores v at a without touching the
// page. Writing zero to a page that was never written leaves it
// unmaterialized, as it already reads zero. A swapped-out page gets its
// body back from its record and keeps it while it stays evicted.
func (s *Space) PokeWord(a Addr, v uint64) {
	s.check(a)
	p := a.Page()
	arr := s.bodies[p]
	if arr == nil {
		if arr = s.unpack(p); arr == nil {
			if v == 0 {
				return
			}
			arr = s.materialize(p)
		}
	}
	arr[(a&(PageSize-1))>>3] = v
}

// ForgetPages drops the host bodies and records of pages [first, end),
// handing the bodies to the process-wide pool under one lock. It charges
// nothing, changes no page flag and tells the VMM nothing: each page
// reads zero afterwards, as if never written, whatever it held. The VMM
// calls it for one page to model madvise(MADV_DONTNEED) (a discarded
// page reads zero-filled when next faulted in); the heap calls it for
// the pages it has emptied, whose next object is written before it is
// read, so the host keeps a body only while an object may occupy its
// page. Another Space may reuse a
// forgotten body straight away, so no caller may keep a body pointer
// across a clock event, whose handler can discard the page.
func (s *Space) ForgetPages(first, end PageID) {
	putBodies(s.bodies[first:end])
	s.forgetRecords(first, end)
}

// HasBody reports whether page p holds a host body: whether a nonzero
// word has been stored on it since the Space was made or the page last
// forgotten, and it was not swapped out to a record since (HasRecord).
// It charges nothing.
func (s *Space) HasBody(p PageID) bool { return s.bodies[p] != nil }
