// Package objmodel defines the managed object model: two-word object
// headers with a status word (bookmark bit, forwarding state, mark epoch),
// type descriptors with pointer maps, and the segregated size classes of
// the paper's mature space (§3).
//
// As in Jikes RVM, the bookmark is a single bit already available in the
// object's header status word (§3.5), and objects are either scalars
// (fixed layout with a pointer map) or arrays (homogeneous elements).
// Unlike stock Jikes, headers always sit at the start of the object — the
// layout the paper adopts so a raw page scan can locate headers (§4).
package objmodel

import (
	"fmt"

	"bookmarkgc/internal/mem"
)

// HeaderWords is the size of every object header.
const HeaderWords = 2

// HeaderBytes is HeaderWords in bytes.
const HeaderBytes = HeaderWords * mem.WordSize

// Status word layout (header word 0):
//
//	bit  0      bookmark   — object is the target of a pointer from an
//	                         evicted page; treated as a root (§3.4)
//	bit  1      forwarded  — object has been copied; bits 32..63 hold the
//	                         new location as a word offset
//	bits 2..31  mark epoch — object is marked iff its epoch equals the
//	                         collector's current epoch (avoids touching
//	                         every page to clear mark bits between GCs)
//	bits 32..63 forward    — word offset of the forwarded copy
const (
	bookmarkBit  = uint64(1) << 0
	forwardedBit = uint64(1) << 1
	epochShift   = 2
	epochMask    = uint64(1)<<30 - 1
	fwdShift     = 32
)

// MaxEpoch is the largest mark epoch before wrap-around. Collectors bump
// the epoch per full collection; equality-only comparison means a stale
// epoch from 2^30 collections ago would alias, which no run approaches.
const MaxEpoch = uint32(epochMask)

// Ref is a reference to a managed object: the address of its header.
type Ref = mem.Addr

// Bookmarked reports whether the object's bookmark bit is set.
func Bookmarked(s *mem.Space, o Ref) bool {
	return s.ReadWord(o)&bookmarkBit != 0
}

// SetBookmark sets the bookmark bit.
func SetBookmark(s *mem.Space, o Ref) {
	s.WriteWord(o, s.ReadWord(o)|bookmarkBit)
}

// ClearBookmark clears the bookmark bit.
func ClearBookmark(s *mem.Space, o Ref) {
	s.WriteWord(o, s.ReadWord(o)&^bookmarkBit)
}

// Marked reports whether the object is marked in the given epoch.
func Marked(s *mem.Space, o Ref, epoch uint32) bool {
	return uint32(s.ReadWord(o)>>epochShift)&uint32(epochMask) == epoch
}

// SetMark marks the object in the given epoch, preserving other bits.
func SetMark(s *mem.Space, o Ref, epoch uint32) {
	w := s.ReadWord(o)
	w = (w &^ (epochMask << epochShift)) | uint64(epoch&uint32(epochMask))<<epochShift
	s.WriteWord(o, w)
}

// MarkIfUnmarked marks o in epoch if it is not already marked, reporting
// whether it performed the mark. It charges exactly what the open-coded
// Marked + SetMark sequence would: one status-word read when already
// marked, two reads and a write when not. The batched path applies only
// when no clock event can fall inside that window; otherwise the exact
// per-access sequence runs.
func MarkIfUnmarked(s *mem.Space, o Ref, epoch uint32) bool {
	if body, ok := s.OpenWindow(o, 3); ok {
		w := mem.BodyWord(body, o)
		if uint32(w>>epochShift)&uint32(epochMask) == epoch {
			return false
		}
		w = (w &^ (epochMask << epochShift)) | uint64(epoch&uint32(epochMask))<<epochShift
		s.ChargeReads(1)
		s.WindowWrite(o, w)
		return true
	}
	if Marked(s, o, epoch) {
		return false
	}
	SetMark(s, o, epoch)
	return true
}

// Forwarded reports whether the object has been copied elsewhere.
func Forwarded(s *mem.Space, o Ref) bool {
	return s.ReadWord(o)&forwardedBit != 0
}

// Forward records that o has been copied to dst.
func Forward(s *mem.Space, o Ref, dst Ref) {
	w := s.ReadWord(o)
	w = (w & (bookmarkBit | epochMask<<epochShift)) | forwardedBit | uint64(dst.WordIndex())<<fwdShift
	s.WriteWord(o, w)
}

// ForwardAddr returns where o was copied to; only valid if Forwarded.
func ForwardAddr(s *mem.Space, o Ref) Ref {
	return mem.Addr(s.ReadWord(o)>>fwdShift) * mem.WordSize
}

// ClearStatus resets the full status word (used when initializing a
// freshly allocated object).
func ClearStatus(s *mem.Space, o Ref) { s.WriteWord(o, 0) }

// Header word 1: typeID in the low 32 bits, array length in the high 32.

// SetTypeWord initializes header word 1.
func SetTypeWord(s *mem.Space, o Ref, typeID int32, arrayLen int) {
	s.WriteWord(o+mem.WordSize, uint64(uint32(typeID))|uint64(uint32(arrayLen))<<32)
}

// TypeID returns the object's type identifier.
func TypeID(s *mem.Space, o Ref) int32 {
	return int32(uint32(s.ReadWord(o + mem.WordSize)))
}

// ArrayLen returns the object's array length (0 for scalars).
func ArrayLen(s *mem.Space, o Ref) int {
	return int(uint32(s.ReadWord(o+mem.WordSize) >> 32))
}

// PeekHeader decodes both header words without touching the page, for
// heap verifiers that must not perturb the run they check.
func PeekHeader(s *mem.Space, o Ref) (forwarded bool, typeID int32, arrayLen int) {
	w := s.PeekWord(o + mem.WordSize)
	return s.PeekWord(o)&forwardedBit != 0, int32(uint32(w)), int(uint32(w >> 32))
}

// PeekBookmarked is Bookmarked without touching the page.
func PeekBookmarked(s *mem.Space, o Ref) bool { return s.PeekWord(o)&bookmarkBit != 0 }

// Payload returns the address of the object's first payload word.
func Payload(o Ref) mem.Addr { return o + HeaderBytes }

// Kind distinguishes scalars from arrays. The paper segregates them onto
// different superpages so a page scan can locate headers (§4).
type Kind uint8

const (
	// KindScalar objects have a fixed payload described by a pointer map.
	KindScalar Kind = iota
	// KindArray objects have a homogeneous variable-length payload.
	KindArray
)

func (k Kind) String() string {
	if k == KindScalar {
		return "scalar"
	}
	return "array"
}

// Type describes a class of objects.
type Type struct {
	ID        int32
	Name      string
	Kind      Kind
	SizeWords int     // scalar payload words (excluding header)
	PtrFields []int32 // scalar: payload word offsets holding references
	ElemPtr   bool    // array: true if elements are references
}

// PayloadWords returns the payload size in words for an instance.
func (t *Type) PayloadWords(arrayLen int) int {
	if t.Kind == KindArray {
		return arrayLen
	}
	return t.SizeWords
}

// TotalBytes returns the full object size (header + payload) in bytes.
func (t *Type) TotalBytes(arrayLen int) int {
	return HeaderBytes + t.PayloadWords(arrayLen)*mem.WordSize
}

// NumRefSlots returns how many reference slots an instance has.
func (t *Type) NumRefSlots(arrayLen int) int {
	if t.Kind == KindArray {
		if t.ElemPtr {
			return arrayLen
		}
		return 0
	}
	return len(t.PtrFields)
}

// RefSlotAddr returns the address of the object's i-th reference slot.
func (t *Type) RefSlotAddr(o Ref, i int) mem.Addr {
	if t.Kind == KindArray {
		return Payload(o) + mem.Addr(i)*mem.WordSize
	}
	return Payload(o) + mem.Addr(t.PtrFields[i])*mem.WordSize
}

// Table is a registry of type descriptors, shared by a runtime instance.
type Table struct {
	types  []*Type
	sealed bool // Seal: no more types, so several runtimes may share it
}

// Seal closes the table to new types, so that runtimes on several
// goroutines may share it: registering a type in a sealed table panics.
func (tb *Table) Seal() { tb.sealed = true }

// register appends t, which takes the next ID.
func (tb *Table) register(t *Type) *Type {
	if tb.sealed {
		panic(fmt.Sprintf("objmodel: registering %s in a sealed type table", t.Name))
	}
	t.ID = int32(len(tb.types))
	tb.types = append(tb.types, t)
	return t
}

// NewTable creates an empty type table.
func NewTable() *Table { return &Table{} }

// Scalar registers a scalar type. ptrFields are payload word offsets of
// reference fields and must be in range and strictly increasing.
func (tb *Table) Scalar(name string, sizeWords int, ptrFields ...int32) *Type {
	if sizeWords < 0 {
		panic("objmodel: negative size")
	}
	prev := int32(-1)
	for _, f := range ptrFields {
		if f <= prev || int(f) >= sizeWords {
			panic(fmt.Sprintf("objmodel: bad pointer map for %s: %v", name, ptrFields))
		}
		prev = f
	}
	return tb.register(&Type{
		Name:      name,
		Kind:      KindScalar,
		SizeWords: sizeWords,
		PtrFields: ptrFields,
	})
}

// Array registers an array type whose elements are (or are not) refs.
func (tb *Table) Array(name string, elemPtr bool) *Type {
	return tb.register(&Type{
		Name:    name,
		Kind:    KindArray,
		ElemPtr: elemPtr,
	})
}

// Get returns the type with the given ID.
func (tb *Table) Get(id int32) *Type { return tb.types[id] }

// Len returns the number of registered types.
func (tb *Table) Len() int { return len(tb.types) }

// TypeOf reads an object's type descriptor and array length: two charged
// header reads (type ID, then array length), batched into one load when
// no clock event falls between them.
func (tb *Table) TypeOf(s *mem.Space, o Ref) (*Type, int) {
	w1, w2 := s.ReadWordPair(o + mem.WordSize)
	return tb.types[int32(uint32(w1))], int(uint32(w2 >> 32))
}
