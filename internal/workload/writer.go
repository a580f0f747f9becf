package workload

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"io"

	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/mutator"
	"bookmarkgc/internal/trace"
)

// Writer emits a trace: header, Meta block, then events packed into
// CRC-framed blocks. Events never straddle a block boundary (the writer
// flushes only between events), so a reader can decode each block's
// payload independently after its CRC checks out.
//
// Errors are sticky: the first underlying write failure is remembered
// and reported by every later call and by End.
type Writer struct {
	w   io.Writer
	buf []byte
	err error

	ended  bool
	events uint64
	blocks uint64

	// Counters, when set, accumulates the event and block counts
	// (workload_events_recorded, workload_blocks_written). Optional; set
	// before writing events.
	Counters *trace.Counters
}

// NewWriter writes the file header and meta block to w. meta's
// FormatVersion is forced to the version this package writes.
func NewWriter(w io.Writer, meta Meta) (*Writer, error) {
	meta.FormatVersion = Version
	mb, err := json.Marshal(meta)
	if err != nil {
		return nil, err
	}
	wr := &Writer{w: w}
	wr.buf, _ = freeBlockBufs.Get()
	if _, err := w.Write(append([]byte(magic), Version)); err != nil {
		return nil, err
	}
	wr.buf = append(wr.buf, mb...)
	if err := wr.flush(); err != nil {
		return nil, err
	}
	return wr, nil
}

// flush frames the buffered payload as one block.
func (w *Writer) flush() error {
	if w.err != nil || len(w.buf) == 0 {
		return w.err
	}
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(w.buf)))
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(w.buf))
	for _, chunk := range [][]byte{hdr[:n], w.buf, crc[:]} {
		if _, err := w.w.Write(chunk); err != nil {
			w.err = err
			return err
		}
	}
	w.buf = w.buf[:0]
	w.blocks++
	w.Counters.Inc(trace.CWorkloadBlocksWritten)
	return nil
}

// endEvent closes out one event: counts it and flushes at block-size
// boundaries, keeping events whole within blocks.
func (w *Writer) endEvent() {
	w.events++
	w.Counters.Inc(trace.CWorkloadEventsRecorded)
	if len(w.buf) >= flushAt {
		w.flush()
	}
}

func (w *Writer) uv(v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	w.buf = append(w.buf, tmp[:n]...)
}

// u64 is fixed-width: used for full-entropy values (random init data,
// checksums) where a varint would average longer than 8 bytes.
func (w *Writer) u64(v uint64) {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	w.buf = append(w.buf, tmp[:]...)
}

// Alloc emits one allocation event.
func (w *Writer) Alloc(sh mutator.Shape, dest byte, destSlot int, hasInit bool, initIdx int, initVal uint64) {
	flags := sh.Kind&kindMask | dest<<destShift
	if hasInit {
		flags |= initBit
	}
	w.buf = append(w.buf, opAlloc, flags)
	w.uv(uint64(sh.Words))
	if dest != destNone {
		w.uv(uint64(destSlot))
	}
	if hasInit {
		w.uv(uint64(initIdx))
		w.u64(initVal)
	}
	w.endEvent()
}

// Work emits one mutator work item (read, or read+write).
func (w *Writer) Work(slot, readIdx int, write bool, writeIdx int) {
	if write {
		w.buf = append(w.buf, opWorkRW)
		w.uv(uint64(slot))
		w.uv(uint64(readIdx))
		w.uv(uint64(writeIdx))
	} else {
		w.buf = append(w.buf, opWorkR)
		w.uv(uint64(slot))
		w.uv(uint64(readIdx))
	}
	w.endEvent()
}

// Link emits a pointer store (or, with hasWrite false, the header read
// of a pointer-free source that produced no store).
func (w *Writer) Link(srcSlot, dstSlot int, hasWrite bool, refIdx int) {
	if hasWrite {
		w.buf = append(w.buf, opLink)
		w.uv(uint64(srcSlot))
		w.uv(uint64(dstSlot))
		w.uv(uint64(refIdx))
	} else {
		w.buf = append(w.buf, opLinkNop)
		w.uv(uint64(srcSlot))
		w.uv(uint64(dstSlot))
	}
	w.endEvent()
}

// StepEnd marks the end of one allocation iteration.
func (w *Writer) StepEnd() {
	w.buf = append(w.buf, opStepEnd)
	w.endEvent()
}

// Free emits an advisory death hint for an object (IDs are implicit
// allocation ordinals, starting at 1).
func (w *Writer) Free(objID uint64) {
	w.buf = append(w.buf, opFree)
	w.uv(objID)
	w.endEvent()
}

// Release emits a root-slot release (synthesized traces; the generator
// never releases roots).
func (w *Writer) Release(slot int) {
	w.buf = append(w.buf, opRelease)
	w.uv(uint64(slot))
	w.endEvent()
}

// RootNil emits a Roots().Add(Nil) — an empty slot reserved at startup.
func (w *Writer) RootNil(slot int) {
	w.buf = append(w.buf, opRootNil)
	w.uv(uint64(slot))
	w.endEvent()
}

// End writes the footer event and flushes the final block. It must be
// the last call; the Writer is unusable afterwards.
func (w *Writer) End(f Footer) error {
	if w.ended {
		return w.err
	}
	w.ended = true
	flags := byte(0)
	if f.HasChecksum {
		flags |= endHasChecksum
	}
	w.buf = append(w.buf, opEnd, flags)
	w.uv(f.Allocs)
	w.uv(f.Bytes)
	if f.HasChecksum {
		w.u64(f.Checksum)
	}
	w.events++
	w.Counters.Inc(trace.CWorkloadEventsRecorded)
	err := w.flush()
	freeBlockBufs.Put(w.buf[:0])
	w.buf = nil
	return err
}

// freeBlockBufs holds the block buffers of ended Writers for the next
// NewWriter.
var freeBlockBufs mem.FreeList[[]byte]

// Events returns how many events have been emitted (including the
// footer once End has run).
func (w *Writer) Events() uint64 { return w.events }

// Blocks returns how many blocks have been flushed.
func (w *Writer) Blocks() uint64 { return w.blocks }
