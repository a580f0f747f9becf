package mutator

import (
	"fmt"

	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/objmodel"
)

// Allocation kinds reported to a Sink (and encoded in trace files).
// They index the three workload types DeclareTypes registers.
const (
	// AllocNode is a scalar node: 4 payload words, refs in words 0,1.
	AllocNode byte = iota
	// AllocDataArr is a pointer-free data array.
	AllocDataArr
	// AllocRefArr is a reference array (synthesized workloads only; the
	// spec-driven generator never allocates one).
	AllocRefArr
)

// NodeWords is a node's payload: reference slots at words 0 and 1, data
// words at 2 and 3.
const NodeWords = 4

// Shape is an object as a trace records it: its allocation kind and its
// payload words. Its methods are the one rulebook for what an object of
// each kind holds, which the trace verifier, the replayer and the
// synthesizer all read; a test checks it against the types DeclareTypes
// registers.
type Shape struct {
	Kind  byte
	Words int
}

// NodeShape is the shape of every node.
var NodeShape = Shape{AllocNode, NodeWords}

// Valid reports whether an allocation may have this shape: a node has
// NodeWords words, an array at least one.
func (s Shape) Valid() bool {
	switch s.Kind {
	case AllocNode:
		return s.Words == NodeWords
	case AllocDataArr, AllocRefArr:
		return s.Words >= 1
	}
	return false
}

// RefSlots returns how many reference slots the object has; a pointer
// store may target slots 0 to RefSlots()-1.
func (s Shape) RefSlots() int {
	switch s.Kind {
	case AllocNode:
		return 2
	case AllocRefArr:
		return s.Words
	}
	return 0
}

// DataWords returns the payload words [lo, lo+n) that hold integers: the
// words an allocation's init write may touch.
func (s Shape) DataWords() (lo, n int) {
	switch s.Kind {
	case AllocNode:
		return 2, 2
	case AllocDataArr:
		return 0, s.Words
	}
	return 0, 0
}

// WorkWords returns the payload words [lo, lo+n) a work read or write
// may touch: the data words, with one exception. Work on a reference
// array touches its element 0, so a read-modify-write stores an integer
// where the collector expects a reference. That is a known defect of the
// synthesized workloads, kept so their streams stay byte-identical;
// removing the exception's line makes every such stream corrupt.
func (s Shape) WorkWords() (lo, n int) {
	if s.Kind == AllocRefArr {
		return 0, 1 // the exception
	}
	return s.DataWords()
}

// InitOK reports whether an init write may touch word i.
func (s Shape) InitOK(i int) bool {
	lo, n := s.DataWords()
	return i >= lo && i < lo+n
}

// WorkOK reports whether a work read or write may touch word i.
func (s Shape) WorkOK(i int) bool {
	lo, n := s.WorkWords()
	return i >= lo && i < lo+n
}

// Bytes returns the object's size, header included.
func (s Shape) Bytes() int { return objmodel.HeaderBytes + s.Words*mem.WordSize }

var kindNames = [...]string{"node", "data array", "reference array"}

// String names the shape, for error messages.
func (s Shape) String() string {
	if int(s.Kind) < len(kindNames) {
		return fmt.Sprintf("%d-word %s", s.Words, kindNames[s.Kind])
	}
	return fmt.Sprintf("kind %d", s.Kind)
}

// TypeFor returns the type and array length an allocation of shape s
// passes to Collector.Alloc.
func (ts Types) TypeFor(s Shape) (*objmodel.Type, int) {
	switch s.Kind {
	case AllocNode:
		return ts.Node, 0
	case AllocDataArr:
		return ts.DataArr, s.Words
	}
	return ts.RefArr, s.Words
}

// ShapeOf returns the shape of an object whose header Table.TypeOf read
// as (t, arrayLen). A type DeclareTypes did not register has no valid
// kind, so every rule refuses it.
func (ts Types) ShapeOf(t *objmodel.Type, arrayLen int) Shape {
	s := Shape{Kind: byte(len(kindNames)), Words: t.PayloadWords(arrayLen)}
	switch t {
	case ts.Node:
		s.Kind = AllocNode
	case ts.DataArr:
		s.Kind = AllocDataArr
	case ts.RefArr:
		s.Kind = AllocRefArr
	}
	return s
}
