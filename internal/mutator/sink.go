package mutator

import "bookmarkgc/internal/gc"

// Sink observes the generator's event stream at the exact granularity a
// replayer needs to reproduce the run bit-for-bit: every collector call
// and every root-registry operation, in execution order, including the
// header reads (dataIndexOf/refSlots) that touch pages on the simulated
// machine. Observation itself never advances the simulated clock, so a
// recorded run is bit-identical to an unrecorded one.
//
// Call protocol: Alloc is immediately followed by the fate of the new
// object — RootAdd or RootSet if it survives into a root slot, or the
// next event if it is dropped (a temporary).
type Sink interface {
	// Alloc reports one allocation: kind selects the workload type,
	// words its payload words (node: always 4), and, when hasInit, the
	// single initializing data write (initIdx, initVal) that follows.
	Alloc(kind byte, words int, hasInit bool, initIdx int, initVal uint64)
	// RootAdd reports Roots().Add of the just-allocated object into slot.
	RootAdd(slot int)
	// RootAddNil reports Roots().Add(mem.Nil) — an empty slot reserved at
	// startup (the large-buffer ring).
	RootAddNil(slot int)
	// RootSet reports Roots().Set(slot, <just-allocated object>).
	RootSet(slot int)
	// Work reports one mutator work item on the object in root slot:
	// a header read (dataIndexOf), ReadData at readIdx, and — when write
	// is set — a second header read and WriteData of v+1 at writeIdx.
	Work(slot, readIdx int, write bool, writeIdx int)
	// Link reports a pointer-store attempt: a header read of the object
	// in srcSlot (refSlots), then — when hasWrite — WriteRef of the
	// object in dstSlot into reference slot refIdx of the source.
	Link(srcSlot, dstSlot int, hasWrite bool, refIdx int)
	// StepEnd marks the end of one allocation iteration — the unit
	// Step's quantum counts, so replay interleaves identically when
	// fleet tenants share a machine.
	StepEnd()
}

// Workload is the stepping interface sim drives: implemented by Run
// (the spec-driven generator) and by trace replayers
// (internal/workload). Quantum semantics match Run.Step: one quantum
// unit is one allocation iteration.
type Workload interface {
	Step(quantum int) bool
	Done() bool
	// Err reports a workload-internal failure (a corrupt or truncated
	// trace, typically); generated runs never fail.
	Err() error
	Finish() Result
}

// Source produces a fresh Workload bound to one collector instance —
// the seam through which sim.Run and sim.RunFleet accept recorded or
// synthesized traces in place of a Spec's generator.
type Source interface {
	NewWorkload(c gc.Collector, types Types, seed int64) (Workload, error)
}

// NewWorkload implements Source: a Spec is its own workload factory,
// the generator.
func (s Spec) NewWorkload(c gc.Collector, types Types, seed int64) (Workload, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return NewRun(s, c, types, seed), nil
}
