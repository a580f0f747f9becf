package gc

import (
	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/trace"
)

// CardBytes is the granularity of the card table used when write buffers
// are filtered (§3.1).
const CardBytes = 512

// RemSet remembers mature-to-nursery pointers for generational
// collectors. Two regimes:
//
//   - Unbounded (bufCap = 0): a growing write buffer, as MMTk's GenMS and
//     GenCopy use.
//   - Paper BC (§3.1): page-sized write buffers. When a buffer fills, it
//     is processed: entries whose slot no longer holds an interesting
//     pointer are pruned, the remainder are demoted to card marks for
//     their source objects, and the buffer is recycled — so the remset
//     usually occupies a single page.
type RemSet struct {
	entries []mem.Addr
	bufCap  int
	filter  func(slot mem.Addr) bool // still points into the nursery?

	cards    *mem.Bitmap
	cardBase mem.Addr
	cardEnd  mem.Addr

	flushes   uint64
	maxBuffer int
	counters  *trace.Counters
}

// NewRemSet covers slot addresses in [cardBase, cardEnd) with a card
// table, whose words s lends. bufCap is the entry capacity of one write
// buffer (0 disables filtering; the buffer grows without bound).
func NewRemSet(s *mem.Space, cardBase, cardEnd mem.Addr, bufCap int) *RemSet {
	n := int(cardEnd-cardBase+CardBytes-1) / CardBytes
	return &RemSet{
		bufCap:   bufCap,
		cards:    s.NewBitmap(n),
		cardBase: cardBase,
		cardEnd:  cardEnd,
	}
}

// freeBuffers holds the write buffers of released remembered sets, by
// capacity: a buffer grows through it (mem.Classed).
var freeBuffers mem.Classed[mem.Addr]

// Release gives the write buffer back to freeBuffers. Call it once the
// run has ended.
func (r *RemSet) Release() {
	freeBuffers.Put(r.entries)
	r.entries = nil
}

// EntriesPerPage is how many slot addresses fit a page-sized buffer.
const EntriesPerPage = mem.PageSize / mem.WordSize

// SetFilter installs the predicate deciding whether a buffered slot still
// holds an interesting (nursery-bound) pointer at flush time.
func (r *RemSet) SetFilter(f func(slot mem.Addr) bool) { r.filter = f }

// SetCounters attaches a counter registry recording flush activity (the
// §3.1 overflow→card filterings). nil detaches.
func (r *RemSet) SetCounters(c *trace.Counters) { r.counters = c }

// Record buffers a slot address. When the page-sized buffer fills, it is
// processed and compacted (§3.1).
func (r *RemSet) Record(slot mem.Addr) {
	r.entries = freeBuffers.Append(r.entries, slot)
	if len(r.entries) > r.maxBuffer {
		r.maxBuffer = len(r.entries)
	}
	if r.bufCap > 0 && len(r.entries) >= r.bufCap {
		r.Flush()
	}
}

// Flush prunes stale entries and demotes live ones to card marks,
// emptying the buffer.
func (r *RemSet) Flush() {
	r.flushes++
	r.counters.Inc(trace.CRemsetFlushes)
	for _, slot := range r.entries {
		if r.filter != nil && !r.filter(slot) {
			r.counters.Inc(trace.CRemsetEntriesFiltered)
			continue
		}
		r.counters.Inc(trace.CRemsetEntriesCarded)
		r.markCard(slot)
	}
	r.entries = r.entries[:0]
}

func (r *RemSet) markCard(a mem.Addr) {
	if a < r.cardBase || a >= r.cardEnd {
		return
	}
	r.cards.Set(int(a-r.cardBase) / CardBytes)
}

// ForEachSlot visits the buffered slot addresses.
func (r *RemSet) ForEachSlot(fn func(slot mem.Addr)) {
	for _, s := range r.entries {
		fn(s)
	}
}

// ForEachCard visits each marked card as an address range.
func (r *RemSet) ForEachCard(fn func(start, end mem.Addr)) {
	for i := r.cards.NextSet(0); i >= 0; i = r.cards.NextSet(i + 1) {
		start := r.cardBase + mem.Addr(i)*CardBytes
		end := start + CardBytes
		if end > r.cardEnd {
			end = r.cardEnd
		}
		fn(start, end)
	}
}

// Clear empties both the buffer and the card table (after a collection
// has consumed them).
func (r *RemSet) Clear() {
	r.entries = r.entries[:0]
	r.cards.ClearAll()
}

// Size returns the number of buffered entries.
func (r *RemSet) Size() int { return len(r.entries) }

// Flushes returns how many times the buffer was processed.
func (r *RemSet) Flushes() uint64 { return r.flushes }

// MaxBufferPages returns the peak buffer footprint in page-sized units —
// the quantity §3.1 is about ("often consumes just a single page").
func (r *RemSet) MaxBufferPages() int {
	if r.maxBuffer == 0 {
		return 0
	}
	return (r.maxBuffer + EntriesPerPage - 1) / EntriesPerPage
}
