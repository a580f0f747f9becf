package heap

import (
	"fmt"
	"math/bits"
	"slices"

	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/objmodel"
	"bookmarkgc/internal/trace"
)

// Superpage header layout (word offsets from the superpage base). The
// header lives in the first page of the superpage, so reading it touches
// that page — this is the paper's design: metadata is stored in the
// superpage header for constant-time access by bit-masking, and those
// header pages are kept memory-resident (§3.4).
const (
	hdrKindClass = 0 // 0 = free; else (classIndex+1) | kind<<16
	hdrIncoming  = 1 // incoming bookmark counter (§3.4)
	hdrAllocated = 2 // allocated block count
	hdrBitmap    = 4 // allocation bitmap, bitmapWords words
	bitmapWords  = 16
)

func init() {
	if hdrBitmap+bitmapWords > objmodel.SuperHeaderBytes/mem.WordSize {
		panic("heap: superpage header overflows its reservation")
	}
}

// SuperSpace is the segregated-fit mark-sweep mature space: an array of
// superpages, each assigned to one size class and one object kind
// (scalar or array, §4), with block allocation bitmaps in the superpage
// headers. Completely empty superpages can be reassigned to any class.
type SuperSpace struct {
	s       *mem.Space
	classes *objmodel.Classes
	base    mem.Addr
	n       int // superpages in the region

	next    int     // first never-used superpage
	free    []int32 // recycled empty superpages
	avail   [][]int32
	inAvail mem.Bitmap // superpages on an available list
	// refused holds, for a superpage Alloc dropped from its available
	// list because the residency filter refused every free block, that
	// list's key plus one (0: not refused). Like inAvail it is host-side,
	// so Reoffer lists the superpage again without reading its header.
	refused []int32
	// empty holds the pages of unassigned superpages. It mirrors the
	// headers' in-use state so iteration can skip free superpages without
	// touching their (possibly evicted) header pages — the moral
	// equivalent of linking in-use superpages in a list — and it is what
	// EmptyWord publishes. It changes only in AcquireSuper and
	// releaseSuper; emptyAdds counts the releases.
	empty     pageBits
	emptyAdds uint64
	inUse     int
	resident  func(mem.PageID) bool // optional residency filter for alloc/sweep
	counters  *trace.Counters       // optional registry (nil-safe)
}

// NewSuperSpace creates a mature space over [base, end), which must be
// superpage-aligned.
func NewSuperSpace(s *mem.Space, classes *objmodel.Classes, base, end mem.Addr) *SuperSpace {
	if base%mem.SuperSize != 0 || end%mem.SuperSize != 0 || end <= base {
		panic("heap: unaligned superpage region")
	}
	n := int((end - base) / mem.SuperSize)
	ss, ok := freeSuperSpaces.GetFit(n, func(ss *SuperSpace) int { return ss.n })
	if !ok {
		ss = &SuperSpace{avail: make([][]int32, 2*classes.Len())}
	}
	avail := ss.avail
	if len(avail) != 2*classes.Len() {
		avail = make([][]int32, 2*classes.Len())
	}
	*ss = SuperSpace{
		s:       s,
		classes: classes,
		base:    base,
		n:       n,
		free:    ss.free[:0],
		avail:   avail,
		inAvail: s.NewBitmap(n),
		refused: s.LendInt32s(n),
		empty:   newPageBits(s, base, end),
	}
	ss.empty.setPages(base.Page(), n*mem.SuperPages)
	return ss
}

// freeSuperSpaces holds released spaces with their free lists, and
// availLists the available lists of every space: a list grows through
// it and goes back to it at Release, so whichever space serves a run,
// its lists come from what earlier runs grew.
var (
	freeSuperSpaces mem.FreeList[*SuperSpace]
	availLists      mem.Classed[int32]
)

// Release hands ss, with its free list, to the next NewSuperSpace, and
// its available lists to availLists; its bitmaps and tables go back
// with its Space. Call it
// once the run has ended, when nothing uses ss again.
func (ss *SuperSpace) Release() {
	for key, list := range ss.avail {
		availLists.Put(list)
		ss.avail[key] = nil
	}
	ss.s, ss.resident, ss.counters = nil, nil, nil
	freeSuperSpaces.Put(ss)
}

// SetResidencyFilter restricts allocation and sweeping to blocks whose
// pages satisfy ok. BC installs its residency bit array here so it never
// allocates into or sweeps across evicted pages (§3.3.1, §3.4.1).
func (ss *SuperSpace) SetResidencyFilter(ok func(mem.PageID) bool) { ss.resident = ok }

// SetCounters attaches a counter registry recording superpage churn and
// per-size-class acquisition counts. nil detaches.
func (ss *SuperSpace) SetCounters(c *trace.Counters) { ss.counters = c }

// InUseSupers returns the number of superpages assigned to a class.
func (ss *SuperSpace) InUseSupers() int { return ss.inUse }

// UsedPages returns the page footprint of assigned superpages.
func (ss *SuperSpace) UsedPages() int { return ss.inUse * mem.SuperPages }

// SuperBase returns the base address of superpage idx.
func (ss *SuperSpace) SuperBase(idx int) mem.Addr {
	return ss.base + mem.Addr(idx)*mem.SuperSize
}

// SuperIndex returns the index of the superpage containing a.
func (ss *SuperSpace) SuperIndex(a mem.Addr) int {
	return int((a - ss.base) / mem.SuperSize)
}

// Contains reports whether a lies in the mature region.
func (ss *SuperSpace) Contains(a mem.Addr) bool {
	return a >= ss.base && a < ss.base+mem.Addr(ss.n)*mem.SuperSize
}

// HeaderPage returns the page holding superpage idx's header. BC keeps
// these pages resident (§3.4).
func (ss *SuperSpace) HeaderPage(idx int) mem.PageID {
	return ss.SuperBase(idx).Page()
}

// hdrAddr returns the address of header word w of superpage idx.
func (ss *SuperSpace) hdrAddr(idx, w int) mem.Addr {
	return ss.SuperBase(idx) + mem.Addr(w)*mem.WordSize
}

// hdr reads header word w of superpage idx.
func (ss *SuperSpace) hdr(idx, w int) uint64 { return ss.s.ReadWord(ss.hdrAddr(idx, w)) }

// setHdr writes header word w of superpage idx.
func (ss *SuperSpace) setHdr(idx, w int, v uint64) { ss.s.WriteWord(ss.hdrAddr(idx, w), v) }

// ClassOf returns the size class of superpage idx; ok is false for free
// superpages.
func (ss *SuperSpace) ClassOf(idx int) (objmodel.SizeClass, objmodel.Kind, bool) {
	return ss.decodeKindClass(ss.hdr(idx, hdrKindClass))
}

func (ss *SuperSpace) decodeKindClass(kc uint64) (objmodel.SizeClass, objmodel.Kind, bool) {
	if kc == 0 {
		return objmodel.SizeClass{}, 0, false
	}
	return ss.classes.Class(int(kc&0xffff) - 1), objmodel.Kind(kc >> 16 & 1), true
}

// SuperHeader is a superpage header as PeekHeader reads it: what a checker
// sees of the superpage without touching a page or charging the clock.
type SuperHeader struct {
	Class     objmodel.SizeClass
	Kind      objmodel.Kind
	InUse     bool // assigned to a class
	Incoming  int
	Allocated int // the header's count, not the bitmap's

	base   mem.Addr
	bitmap [bitmapWords]uint64
}

// PeekHeader reads superpage idx's header through PeekWord.
func (ss *SuperSpace) PeekHeader(idx int) SuperHeader {
	peek := func(w int) uint64 { return ss.s.PeekWord(ss.hdrAddr(idx, w)) }
	h := SuperHeader{Incoming: int(peek(hdrIncoming)), Allocated: int(peek(hdrAllocated)), base: ss.SuperBase(idx)}
	h.Class, h.Kind, h.InUse = ss.decodeKindClass(peek(hdrKindClass))
	for w := range h.bitmap {
		h.bitmap[w] = peek(hdrBitmap + w)
	}
	return h
}

// Blocks visits, in address order, every block of the superpage that
// overlaps [start, end), with whether the bitmap marks it allocated.
func (h *SuperHeader) Blocks(start, end mem.Addr, fn func(b objmodel.Ref, allocated bool)) {
	data := h.base + objmodel.SuperHeaderBytes
	for b := 0; b < h.Class.Blocks; b++ {
		o := data + mem.Addr(b*h.Class.BlockSize)
		if o < end && o+mem.Addr(h.Class.BlockSize) > start {
			fn(o, h.bitmap[b/64]&(1<<(uint(b)&63)) != 0)
		}
	}
}

// BlockAt reports whether a is the start of a block, and whether that
// block is allocated.
func (h *SuperHeader) BlockAt(a mem.Addr) (start, allocated bool) {
	data := h.base + objmodel.SuperHeaderBytes
	if a < data || h.Class.BlockSize == 0 || int(a-data)%h.Class.BlockSize != 0 {
		return false, false
	}
	b := int(a-data) / h.Class.BlockSize
	if b >= h.Class.Blocks {
		return false, false
	}
	return true, h.bitmap[b/64]&(1<<(uint(b)&63)) != 0
}

// Allocated returns the number of allocated blocks in superpage idx.
func (ss *SuperSpace) Allocated(idx int) int { return int(ss.hdr(idx, hdrAllocated)) }

// Incoming returns the incoming-bookmark counter of superpage idx.
func (ss *SuperSpace) Incoming(idx int) int { return int(ss.hdr(idx, hdrIncoming)) }

// IncIncoming bumps the incoming-bookmark counter. Headers are resident,
// so this never faults (§3.4).
func (ss *SuperSpace) IncIncoming(idx int) {
	ss.setHdr(idx, hdrIncoming, ss.hdr(idx, hdrIncoming)+1)
}

// DecIncoming decrements the counter, saturating at zero, and returns the
// new value.
func (ss *SuperSpace) DecIncoming(idx int) int {
	v := ss.hdr(idx, hdrIncoming)
	if v > 0 {
		v--
		ss.setHdr(idx, hdrIncoming, v)
	}
	return int(v)
}

// SetIncoming overwrites the counter (used by the fail-safe collection
// when all bookmarks are discarded, §3.5).
func (ss *SuperSpace) SetIncoming(idx int, v int) { ss.setHdr(idx, hdrIncoming, uint64(v)) }

// BlockAddr returns the address of block b in superpage idx.
func (ss *SuperSpace) BlockAddr(idx, b int, cl objmodel.SizeClass) mem.Addr {
	return ss.SuperBase(idx) + objmodel.SuperHeaderBytes + mem.Addr(b*cl.BlockSize)
}

// BlockIndex returns the block number containing a within superpage idx.
func (ss *SuperSpace) BlockIndex(idx int, a mem.Addr, cl objmodel.SizeClass) int {
	return int(a-ss.SuperBase(idx)-objmodel.SuperHeaderBytes) / cl.BlockSize
}

// bit helpers over the header bitmap.
func (ss *SuperSpace) testBit(idx, b int) bool {
	return ss.hdr(idx, hdrBitmap+b/64)&(1<<(uint(b)&63)) != 0
}

func (ss *SuperSpace) setBit(idx, b int) {
	w := hdrBitmap + b/64
	ss.setHdr(idx, w, ss.hdr(idx, w)|1<<(uint(b)&63))
}

func (ss *SuperSpace) clearBit(idx, b int) {
	w := hdrBitmap + b/64
	ss.setHdr(idx, w, ss.hdr(idx, w)&^(1<<(uint(b)&63)))
}

// availKey indexes the per-(class, kind) available lists.
func availKey(cl objmodel.SizeClass, kind objmodel.Kind) int {
	return 2*cl.Index + int(kind)
}

// Alloc allocates an uninitialized block for an object of type t. It
// returns mem.Nil when no block is available — the caller must either
// acquire a superpage (AcquireSuper) or collect.
func (ss *SuperSpace) Alloc(t *objmodel.Type, arrayLen int, cl objmodel.SizeClass) objmodel.Ref {
	kind := t.Kind
	key := availKey(cl, kind)
	list := ss.avail[key]
	for len(list) > 0 {
		idx := int(list[len(list)-1])
		gotCl, gotKind, used := ss.ClassOf(idx)
		if !used || gotCl.Index != cl.Index || gotKind != kind || ss.Allocated(idx) == cl.Blocks {
			// Stale entry: superpage freed, reassigned, or filled.
			list = list[:len(list)-1]
			ss.inAvail.Clear(idx)
			continue
		}
		if o := ss.allocIn(idx, cl, t, arrayLen); o != mem.Nil {
			ss.avail[key] = list
			return o
		}
		// No usable block: every free block is on a page the residency
		// filter refuses. Reoffer lists it again.
		list = list[:len(list)-1]
		ss.inAvail.Clear(idx)
		ss.refused[idx] = int32(key) + 1
	}
	ss.avail[key] = list
	return mem.Nil
}

// allocIn carves the first usable block out of superpage idx and
// initializes the object header.
func (ss *SuperSpace) allocIn(idx int, cl objmodel.SizeClass, t *objmodel.Type, arrayLen int) objmodel.Ref {
	b := ss.nextUsableBlock(idx, cl)
	if b == cl.Blocks {
		return mem.Nil
	}
	o := ss.BlockAddr(idx, b, cl)
	ss.setBit(idx, b)
	ss.setHdr(idx, hdrAllocated, ss.hdr(idx, hdrAllocated)+1)
	objmodel.ClearStatus(ss.s, o)
	objmodel.SetTypeWord(ss.s, o, t.ID, arrayLen)
	ss.s.ZeroRange(objmodel.Payload(o), uint64(t.PayloadWords(arrayLen))*mem.WordSize)
	return o
}

// nextUsableBlock returns the first block of superpage idx that is
// unallocated and whose pages pass the residency filter, or cl.Blocks when
// there is none. It reads the header bitmap a word at a time, one charged
// read per word it examines, and finds the block in the word it holds.
func (ss *SuperSpace) nextUsableBlock(idx int, cl objmodel.SizeClass) int {
	for w := 0; 64*w < cl.Blocks; w++ {
		for free := ss.freeBits(idx, w, cl); free != 0; free &= free - 1 {
			if b := 64*w + bits.TrailingZeros64(free); ss.usable(idx, b, cl) {
				return b
			}
		}
	}
	return cl.Blocks
}

// freeBits reads word w of superpage idx's allocation bitmap and returns
// its clear bits — the word's free blocks — with the bits past cl.Blocks
// masked off.
func (ss *SuperSpace) freeBits(idx, w int, cl objmodel.SizeClass) uint64 {
	free := ^ss.hdr(idx, hdrBitmap+w)
	if rest := cl.Blocks - 64*w; rest < 64 {
		free &= 1<<rest - 1
	}
	return free
}

// usable reports whether free block b of superpage idx lies on pages the
// residency filter accepts.
func (ss *SuperSpace) usable(idx, b int, cl objmodel.SizeClass) bool {
	return ss.resident == nil || ss.blockResident(ss.BlockAddr(idx, b, cl), cl.BlockSize)
}

// blockResident reports whether every page the block spans passes the
// residency filter.
func (ss *SuperSpace) blockResident(o mem.Addr, size int) bool {
	first, last := mem.PagesIn(o, uint64(size))
	for p := first; p <= last; p++ {
		if !ss.resident(p) {
			return false
		}
	}
	return true
}

// AcquireSuper assigns a fresh superpage to (cl, kind) and makes it
// available for allocation. Returns the superpage index, or -1 if the
// region is exhausted.
func (ss *SuperSpace) AcquireSuper(cl objmodel.SizeClass, kind objmodel.Kind) int {
	idx := -1
	if n := len(ss.free); n > 0 {
		idx = int(ss.free[n-1])
		ss.free = ss.free[:n-1]
	} else if ss.next < ss.n {
		idx = ss.next
		ss.next++
	} else {
		return -1
	}
	ss.setHdr(idx, hdrKindClass, uint64(cl.Index+1)|uint64(kind)<<16)
	ss.setHdr(idx, hdrIncoming, 0)
	ss.setHdr(idx, hdrAllocated, 0)
	for w := 0; w < bitmapWords; w++ {
		ss.setHdr(idx, hdrBitmap+w, 0)
	}
	ss.empty.clearPages(ss.HeaderPage(idx), mem.SuperPages)
	ss.inUse++
	ss.counters.Inc(trace.CSuperpagesAcquired)
	ss.counters.AddVec(trace.VSuperAllocsByClass, cl.Index, 1)
	ss.pushAvail(idx, cl, kind)
	return idx
}

func (ss *SuperSpace) pushAvail(idx int, cl objmodel.SizeClass, kind objmodel.Kind) {
	ss.listAvail(idx, availKey(cl, kind))
}

func (ss *SuperSpace) listAvail(idx, key int) {
	ss.refused[idx] = 0
	if !ss.inAvail.Test(idx) {
		ss.inAvail.Set(idx)
		ss.avail[key] = availLists.Append(ss.avail[key], int32(idx))
	}
}

// Reoffer lists superpage idx for allocation again if Alloc dropped it
// because the residency filter refused every free block. Call it when
// the filter starts accepting pages of idx. It reads no header, so it
// touches no page.
func (ss *SuperSpace) Reoffer(idx int) {
	if k := ss.refused[idx]; k != 0 {
		ss.listAvail(idx, int(k-1))
	}
}

// Listed reports whether superpage idx is on the available list of
// (cl, kind). It asks the list itself, not inAvail: a stale entry popped
// from another key's list clears inAvail for a superpage this key still
// lists.
func (ss *SuperSpace) Listed(idx int, cl objmodel.SizeClass, kind objmodel.Kind) bool {
	return slices.Contains(ss.avail[availKey(cl, kind)], int32(idx))
}

// FreeBlock releases the block holding object o. When the superpage
// becomes empty it is returned to the free pool (reassignable to any
// class). Reports whether the superpage became free.
func (ss *SuperSpace) FreeBlock(o objmodel.Ref) bool {
	idx := ss.SuperIndex(o)
	cl, kind, ok := ss.ClassOf(idx)
	if !ok {
		panic(fmt.Sprintf("heap: FreeBlock on free superpage %d", idx))
	}
	b := ss.BlockIndex(idx, o, cl)
	if !ss.testBit(idx, b) {
		panic("heap: double free")
	}
	ss.clearBit(idx, b)
	n := ss.hdr(idx, hdrAllocated) - 1
	ss.setHdr(idx, hdrAllocated, n)
	if n == 0 {
		ss.releaseSuper(idx)
		return true
	}
	ss.pushAvail(idx, cl, kind)
	return false
}

// releaseSuper marks superpage idx free and gives its four pages' host
// bodies back (mem.ForgetPages). Its header now reads all zero — class,
// count, allocated blocks and bitmap — so a forgotten header page reads
// what it held, and AcquireSuper and the allocator write every block
// before it is read.
func (ss *SuperSpace) releaseSuper(idx int) {
	ss.setHdr(idx, hdrKindClass, 0)
	ss.setHdr(idx, hdrIncoming, 0)
	first := ss.HeaderPage(idx)
	ss.s.ForgetPages(first, first+mem.SuperPages)
	ss.empty.setPages(first, mem.SuperPages)
	ss.emptyAdds++
	ss.inUse--
	ss.counters.Inc(trace.CSuperpagesReleased)
	ss.free = append(ss.free, int32(idx))
	ss.inAvail.Clear(idx)
	ss.refused[idx] = 0
}

// ForEachSuper calls fn for every in-use superpage. Reading the header
// touches the header page, as a real header walk would.
func (ss *SuperSpace) ForEachSuper(fn func(idx int, cl objmodel.SizeClass, kind objmodel.Kind)) {
	for idx := 0; idx < ss.next; idx++ {
		if !ss.Used(idx) {
			continue
		}
		if cl, kind, ok := ss.ClassOf(idx); ok {
			fn(idx, cl, kind)
		}
	}
}

// Used reports whether superpage idx is assigned to a class, without
// touching the header page.
func (ss *SuperSpace) Used(idx int) bool { return !ss.empty.Test(ss.empty.bit(ss.HeaderPage(idx))) }

// EmptyWord returns word wi of the region's empty pages — every page of
// every unassigned superpage — as a bitmap indexed by absolute page
// number (zero outside the region).
func (ss *SuperSpace) EmptyWord(wi int) uint64 { return ss.empty.word(wi) }

// EmptyAdds counts the changes that may have added pages to EmptyWord:
// only releaseSuper sets empty bits.
func (ss *SuperSpace) EmptyAdds() uint64 { return ss.emptyAdds }

// nextAllocated returns the first allocated block of superpage idx in
// [b, last], or last+1 when there is none. It is the only loop that reads
// the allocation bitmap a bit at a time: one charged header read per
// block it passes. The walkers and the sweep all go through it.
func (ss *SuperSpace) nextAllocated(idx, b, last int) int {
	for b <= last && !ss.testBit(idx, b) {
		b++
	}
	return b
}

// ObjectsOverlapping visits, in address order, the allocated blocks of
// superpage idx whose extent overlaps [start, end): a card (§3.1), a page
// BC evicts or reloads (§3.4), or the whole superpage. The walk reads only
// the header, so it does not touch data pages.
func (ss *SuperSpace) ObjectsOverlapping(idx int, start, end mem.Addr, fn func(o objmodel.Ref)) {
	cl, _, ok := ss.ClassOf(idx)
	if !ok {
		return
	}
	data := ss.SuperBase(idx) + objmodel.SuperHeaderBytes
	if end <= data {
		return
	}
	first := 0
	if start > data {
		first = int(start-data) / cl.BlockSize
	}
	last := min(int(end-1-data)/cl.BlockSize, cl.Blocks-1)
	for b := ss.nextAllocated(idx, first, last); b <= last; b = ss.nextAllocated(idx, b+1, last) {
		fn(ss.BlockAddr(idx, b, cl))
	}
}

// ForEachObjectIn visits every allocated block of superpage idx.
func (ss *SuperSpace) ForEachObjectIn(idx int, fn func(o objmodel.Ref)) {
	ss.ObjectsOverlapping(idx, ss.SuperBase(idx), ss.SuperBase(idx)+mem.SuperSize, fn)
}

// SweepSuper frees every allocated block in superpage idx whose object is
// unmarked in epoch. If the space has a residency filter, blocks starting
// on non-resident pages are skipped entirely (BC sweeps only the
// memory-resident pages, §3.4.1). Returns the number of blocks freed and
// whether the superpage became empty.
func (ss *SuperSpace) SweepSuper(idx int, epoch uint32) (freed int, empty bool) {
	cl, kind, ok := ss.ClassOf(idx)
	if !ok {
		return 0, false
	}
	allocated := ss.hdr(idx, hdrAllocated)
	last := cl.Blocks - 1
	for b := ss.nextAllocated(idx, 0, last); b <= last; b = ss.nextAllocated(idx, b+1, last) {
		o := ss.BlockAddr(idx, b, cl)
		if ss.resident != nil && !ss.resident(o.Page()) {
			continue
		}
		if objmodel.Marked(ss.s, o, epoch) || objmodel.Bookmarked(ss.s, o) {
			continue
		}
		ss.clearBit(idx, b)
		allocated--
		freed++
	}
	ss.setHdr(idx, hdrAllocated, allocated)
	if allocated == 0 {
		ss.releaseSuper(idx)
		return freed, true
	}
	if freed > 0 {
		ss.pushAvail(idx, cl, kind)
	}
	return freed, false
}

// Sweep sweeps every in-use superpage, returning total freed blocks and
// freed superpages.
func (ss *SuperSpace) Sweep(epoch uint32) (blocks, supers int) {
	for idx := 0; idx < ss.next; idx++ {
		if !ss.Used(idx) {
			continue
		}
		f, e := ss.SweepSuper(idx, epoch)
		blocks += f
		if e {
			supers++
		}
	}
	return blocks, supers
}

// HighWater returns one past the largest superpage index ever assigned;
// iteration bounds for callers walking the space themselves.
func (ss *SuperSpace) HighWater() int { return ss.next }

// AllocInSuper carves a block for t out of superpage idx specifically —
// the restricted allocation BC's compaction uses to fill target
// superpages (§3.2). Returns mem.Nil if idx has no usable block.
func (ss *SuperSpace) AllocInSuper(idx int, t *objmodel.Type, arrayLen int) objmodel.Ref {
	cl, kind, ok := ss.ClassOf(idx)
	if !ok || kind != t.Kind {
		return mem.Nil
	}
	return ss.allocIn(idx, cl, t, arrayLen)
}

// FreeResidentBlocks counts the unallocated blocks of superpage idx whose
// pages pass the residency filter — the capacity compaction can copy
// into. Like the allocator it reads each bitmap word once.
func (ss *SuperSpace) FreeResidentBlocks(idx int) int {
	cl, _, ok := ss.ClassOf(idx)
	if !ok {
		return 0
	}
	n := 0
	for w := 0; 64*w < cl.Blocks; w++ {
		for free := ss.freeBits(idx, w, cl); free != 0; free &= free - 1 {
			if ss.usable(idx, 64*w+bits.TrailingZeros64(free), cl) {
				n++
			}
		}
	}
	return n
}

// PagesOf returns the page range of superpage idx.
func (ss *SuperSpace) PagesOf(idx int) (first, last mem.PageID) {
	b := ss.SuperBase(idx)
	return b.Page(), b.Page() + mem.SuperPages - 1
}
