package workload

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"hash/crc32"
	"io"
	"math/bits"
	"os"

	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/trace"
)

// Reader streams a trace: it validates the header and meta block up
// front, then yields events one at a time in constant memory (one block
// buffered, in one buffer that every block reuses). Every framing or
// encoding problem surfaces as an error wrapping ErrCorrupt; the decoder
// never panics on hostile input.
type Reader struct {
	br     *bufio.Reader
	meta   Meta
	buf    []byte // grow-only: every block is read into it
	block  []byte // the current block's payload, within buf
	pos    int
	derr   error // sticky error of the event currently being decoded
	sawEnd bool
	events uint64
	blocks uint64

	// Counters, when set, accumulates workload_blocks_read.
	Counters *trace.Counters
}

// NewReader validates r's header and reads the meta block, into the
// buffers a released reader left if there are any.
func NewReader(r io.Reader) (_ *Reader, err error) {
	rd := &Reader{}
	if sc, ok := freeReaders.Get(); ok {
		sc.br.Reset(r)
		rd.br, rd.buf = sc.br, sc.buf
	} else {
		rd.br = bufio.NewReader(r)
	}
	defer func() {
		if err != nil {
			rd.release()
		}
	}()
	var hdr [5]byte
	if _, err := io.ReadFull(rd.br, hdr[:]); err != nil {
		return nil, corrupt("short header: %v", err)
	}
	if string(hdr[:4]) != magic {
		return nil, corrupt("bad magic %q", hdr[:4])
	}
	if hdr[4] != Version {
		return nil, corrupt("unsupported format version %d (have %d)", hdr[4], Version)
	}
	if err := rd.loadBlock(); err != nil {
		if err == io.EOF {
			return nil, corrupt("missing meta block")
		}
		return nil, err
	}
	if err := json.Unmarshal(rd.block, &rd.meta); err != nil {
		return nil, corrupt("meta: %v", err)
	}
	if rd.meta.FormatVersion != Version {
		return nil, corrupt("meta declares format version %d", rd.meta.FormatVersion)
	}
	rd.block, rd.pos = nil, 0
	return rd, nil
}

// Meta returns the trace's self-description.
func (rd *Reader) Meta() Meta { return rd.meta }

// Events returns how many events have been decoded so far.
func (rd *Reader) Events() uint64 { return rd.events }

// Blocks returns how many blocks have been decoded so far.
func (rd *Reader) Blocks() uint64 { return rd.blocks }

// readScratch is what a released Reader hands to the next: its input
// buffer and its block buffer.
type readScratch struct {
	br  *bufio.Reader
	buf []byte
}

// freeReaders holds the buffers of released readers: finished replays,
// and readers opened only for their meta block.
var freeReaders mem.FreeList[readScratch]

// release hands the reader's buffers to the next NewReader. The reader
// yields nothing after it.
func (rd *Reader) release() {
	rd.br.Reset(nil)
	freeReaders.Put(readScratch{br: rd.br, buf: rd.buf[:0]})
	rd.br, rd.buf, rd.block, rd.pos = nil, nil, nil, 0
	rd.sawEnd = true
}

// loadBlock reads and CRC-checks the next block. io.EOF (untranslated)
// means a clean end-of-stream at a block boundary.
func (rd *Reader) loadBlock() error {
	n, err := binary.ReadUvarint(rd.br)
	if err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return corrupt("block length: %v", err)
	}
	if n == 0 || n > maxBlockSize {
		return corrupt("block length %d out of range", n)
	}
	if uint64(cap(rd.buf)) < n+4 {
		// A power of two holds the next trace's slightly longer blocks too.
		rd.buf = make([]byte, 1<<bits.Len64(n+3))
	}
	buf := rd.buf[:n+4]
	if _, err := io.ReadFull(rd.br, buf); err != nil {
		return corrupt("truncated block: %v", err)
	}
	payload := buf[:n]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(buf[n:]) {
		return corrupt("block CRC mismatch")
	}
	rd.block, rd.pos = payload, 0
	rd.blocks++
	rd.Counters.Inc(trace.CWorkloadBlocksRead)
	return nil
}

// next decodes the next event into ev, which the caller owns and reuses:
// the event is too large to return by value at every step. After the
// footer it returns io.EOF; a stream that ends without a footer is
// corrupt.
func (rd *Reader) next(ev *event) error {
	if rd.sawEnd {
		return io.EOF
	}
	if rd.pos >= len(rd.block) {
		if err := rd.loadBlock(); err != nil {
			if err == io.EOF {
				return corrupt("truncated trace: missing footer")
			}
			return err
		}
	}
	if err := rd.decode(ev); err != nil {
		return err
	}
	rd.events++
	if ev.op == opEnd {
		rd.sawEnd = true
	}
	return nil
}

// expectEOF verifies nothing follows the footer — Verify's last check.
func (rd *Reader) expectEOF() error {
	if rd.pos != len(rd.block) {
		return corrupt("%d trailing bytes after footer in final block", len(rd.block)-rd.pos)
	}
	if _, err := rd.br.ReadByte(); err != io.EOF {
		return corrupt("trailing data after footer")
	}
	return nil
}

// Sticky-error field readers for decode: the first failure wins and
// zero values flow through the rest of the event harmlessly.

func (rd *Reader) rb() byte {
	if rd.derr != nil {
		return 0
	}
	if rd.pos >= len(rd.block) {
		rd.derr = corrupt("event truncated at block boundary")
		return 0
	}
	b := rd.block[rd.pos]
	rd.pos++
	return b
}

func (rd *Reader) ruv() uint64 {
	if rd.derr != nil {
		return 0
	}
	v, n := binary.Uvarint(rd.block[rd.pos:])
	if n <= 0 {
		rd.derr = corrupt("bad varint field")
		return 0
	}
	rd.pos += n
	return v
}

// ri decodes a varint bounded to sane index/count range.
func (rd *Reader) ri() int {
	v := rd.ruv()
	if rd.derr == nil && v >= maxField {
		rd.derr = corrupt("field value %d out of range", v)
	}
	return int(v)
}

func (rd *Reader) ru64() uint64 {
	if rd.derr != nil {
		return 0
	}
	if rd.pos+8 > len(rd.block) {
		rd.derr = corrupt("event truncated at block boundary")
		return 0
	}
	v := binary.LittleEndian.Uint64(rd.block[rd.pos:])
	rd.pos += 8
	return v
}

// decode reads one event from the current block into ev.
func (rd *Reader) decode(ev *event) error {
	rd.derr = nil
	*ev = event{op: rd.rb()}
	switch ev.op {
	case opAlloc:
		flags := rd.rb()
		if flags&^byte(allocFlags) != 0 {
			return corrupt("alloc flags %#x have unknown bits", flags)
		}
		ev.shape.Kind = flags & kindMask
		ev.dest = flags >> destShift & 0x03
		if ev.dest > destSet {
			return corrupt("alloc dest %d unknown", ev.dest)
		}
		ev.hasInit = flags&initBit != 0
		ev.shape.Words = rd.ri()
		if ev.dest != destNone {
			ev.destSlot = rd.ri()
		}
		if ev.hasInit {
			ev.initIdx = rd.ri()
			ev.initVal = rd.ru64()
		}
	case opWorkR:
		ev.slot = rd.ri()
		ev.readIdx = rd.ri()
	case opWorkRW:
		ev.slot = rd.ri()
		ev.readIdx = rd.ri()
		ev.writeIdx = rd.ri()
	case opLink:
		ev.srcSlot = rd.ri()
		ev.dstSlot = rd.ri()
		ev.refIdx = rd.ri()
	case opLinkNop:
		ev.srcSlot = rd.ri()
		ev.dstSlot = rd.ri()
	case opStepEnd:
	case opFree:
		ev.objID = rd.ruv()
	case opRelease:
		ev.slot = rd.ri()
	case opRootNil:
		ev.slot = rd.ri()
	case opEnd:
		flags := rd.rb()
		if flags&^byte(endHasChecksum) != 0 {
			return corrupt("footer flags %#x have unknown bits", flags)
		}
		ev.footer.HasChecksum = flags&endHasChecksum != 0
		ev.footer.Allocs = rd.ruv()
		ev.footer.Bytes = rd.ruv()
		if ev.footer.HasChecksum {
			ev.footer.Checksum = rd.ru64()
		}
	default:
		return corrupt("unknown opcode %d", ev.op)
	}
	return rd.derr
}

// ReadMeta opens path just far enough to return its Meta.
func ReadMeta(path string) (Meta, error) {
	f, err := os.Open(path)
	if err != nil {
		return Meta{}, err
	}
	defer f.Close()
	rd, err := NewReader(f)
	if err != nil {
		return Meta{}, err
	}
	defer rd.release()
	return rd.Meta(), nil
}

// HashFile returns the hex SHA-256 of the file's bytes — the content
// identity runner jobs carry so cached sweeps key on what the trace
// says, not where it lives.
func HashFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
