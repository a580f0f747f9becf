// Package workload records, replays, and synthesizes allocation traces —
// the trace-driven half of the experiment harness. A trace captures a
// mutator's event stream (allocations, root operations, data accesses,
// pointer stores) at exactly the granularity needed to reproduce a run
// bit-for-bit on the simulated machine: replaying a trace issues the
// identical sequence of collector calls and header reads the original
// run issued, so execution time, fault counts, and pause distributions
// come out identical. Because the stream never depends on the collector
// that happened to be running when it was recorded, one trace drives any
// collector — the apples-to-apples comparison spec-driven generators
// cannot offer.
//
// On disk a trace is:
//
//	"GCWL" <version byte>
//	block*                      (first block: JSON Meta; rest: events)
//
// where each block is
//
//	uvarint(len) payload crc32le(payload)
//
// and the payload is a sequence of varint-encoded events, never split
// across blocks. The CRC framing makes torn or bit-flipped files fail
// loudly: any mutation is caught at the block level before an event is
// believed. The final event is always opEnd, a footer carrying the run's
// allocation totals (and, for recorded traces, the mutator checksum the
// replayer must reproduce).
package workload

import (
	"errors"
	"fmt"

	"bookmarkgc/internal/mutator"
)

const (
	magic = "GCWL"
	// Version is the trace format version this package reads and writes.
	Version = 1

	// maxBlockSize bounds a decoded block; real writers flush at flushAt.
	maxBlockSize = 1 << 20
	flushAt      = 32 << 10

	// maxField bounds any varint-decoded count or index: slots, words,
	// and indices all fit comfortably below it, and rejecting larger
	// values keeps corrupt traces from driving absurd allocations.
	maxField = 1 << 31
)

// Event opcodes. opEnd is zero so a zeroed byte never masquerades as a
// plausible event stream past the CRC (it decodes as a footer and the
// totals check fails).
const (
	opEnd     byte = iota // footer: flags, allocs, bytes, [checksum]
	opAlloc               // flags, words, [destSlot], [initIdx, initVal]
	opWorkR               // slot, readIdx
	opWorkRW              // slot, readIdx, writeIdx
	opLink                // srcSlot, dstSlot, refIdx
	opLinkNop             // srcSlot, dstSlot (header read, no store)
	opStepEnd             // end of one allocation iteration
	opFree                // objID — advisory death hint
	opRelease             // slot — root released (synthesized traces)
	opRootNil             // slot — Roots().Add(Nil) (large-buffer ring)
	opMax
)

// opAlloc flag layout and destination codes.
const (
	kindMask   = 0x03 // mutator.AllocNode / AllocDataArr / AllocRefArr
	destShift  = 2
	destMask   = 0x03 << destShift
	initBit    = 0x10
	allocFlags = kindMask | destMask | initBit

	destNone byte = 0 // temporary: no root keeps it
	destAdd  byte = 1 // Roots().Add — slot recorded for verification
	destSet  byte = 2 // Roots().Set(slot, ...)
)

// opEnd footer flags.
const endHasChecksum = 0x01

// Meta is the trace's self-description, stored as JSON in the first
// block. Program round-trips the (scaled) generator spec for recorded
// traces so a replayed run's mutator.Result matches the original's
// exactly; synthesized traces describe their model instead.
type Meta struct {
	FormatVersion int    `json:"format_version"`
	Name          string `json:"name"`
	// Source is "record" or "synth:<model>".
	Source  string        `json:"source"`
	Program *mutator.Spec `json:"program,omitempty"`
	Seed    int64         `json:"seed"`
	// Collector, HeapBytes, and PhysBytes document the recording run;
	// they do not constrain replay.
	Collector string `json:"collector,omitempty"`
	HeapBytes uint64 `json:"heap_bytes,omitempty"`
	PhysBytes uint64 `json:"phys_bytes,omitempty"`
	// Model holds a synthesizer's parameters.
	Model map[string]float64 `json:"model,omitempty"`
}

// Footer is the opEnd event's payload: the run totals every reader
// verifies, plus — for recorded traces — the mutator data checksum the
// replayer must reproduce word-for-word (synthesizers cannot know it
// without simulating the heap, so it is optional).
type Footer struct {
	Allocs      uint64
	Bytes       uint64
	HasChecksum bool
	Checksum    uint64
}

// event is one decoded trace event; which fields are meaningful depends
// on op.
type event struct {
	op       byte
	dest     byte          // alloc: destNone/destAdd/destSet
	hasInit  bool          // alloc
	shape    mutator.Shape // alloc
	destSlot int
	initIdx  int
	initVal  uint64
	slot     int // work / release / rootnil
	readIdx  int
	writeIdx int
	srcSlot  int // link
	dstSlot  int
	refIdx   int
	objID    uint64 // free
	footer   Footer // end
}

// ErrCorrupt is wrapped by every decode-side failure: framing damage,
// unknown opcodes, out-of-range fields, structural violations.
var ErrCorrupt = errors.New("corrupt trace")

func corrupt(format string, args ...any) error {
	return fmt.Errorf("workload: %w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Models lists the synthesizer models Synthesize accepts.
var Models = []string{"markov", "ramp", "frag"}
