package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"bookmarkgc/internal/fault"
	"bookmarkgc/internal/heappolicy"
	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/mutator"
	"bookmarkgc/internal/vmm"
	"bookmarkgc/internal/workload"
)

// kindKnown reports whether kind names an implemented collector.
func kindKnown(kind CollectorKind) bool {
	for _, k := range KnownKinds {
		if k == kind {
			return true
		}
	}
	return false
}

func policyKnown(p ArbitrationPolicy) bool {
	for _, q := range ArbitrationPolicies {
		if q == p {
			return true
		}
	}
	return false
}

// NegativeFieldError is a fleet spec field holding a negative value.
// Zero means "the default" in every such field; a negative value means
// nothing, and the engine would otherwise replace it silently.
type NegativeFieldError struct {
	Tenant int    // the tenant's index, or -1 for a fleet-wide field
	Field  string // the field's JSON name
	Value  int64
}

func (e *NegativeFieldError) Error() string {
	if e.Tenant < 0 {
		return fmt.Sprintf("sim: %s %d is negative", e.Field, e.Value)
	}
	return fmt.Sprintf("sim: tenant %d: %s %d is negative", e.Tenant, e.Field, e.Value)
}

// field is one integer field of a spec, by its JSON name.
type field struct {
	name string
	v    int64
}

// negative returns the first of fs holding a negative value as a
// NegativeFieldError of tenant (-1: fleet-wide); nil when there is none.
func negative(tenant int, fs ...field) error {
	for _, f := range fs {
		if f.v < 0 {
			return &NegativeFieldError{Tenant: tenant, Field: f.name, Value: f.v}
		}
	}
	return nil
}

// Validate rejects fleet specs the engine cannot run, before any
// simulation state exists — the check CLIs and the runner share.
func (s *FleetSpec) Validate() error {
	if len(s.Tenants) == 0 {
		return fmt.Errorf("sim: fleet spec has no tenants")
	}
	if s.PhysBytes < vmm.MinPhysBytes {
		return fmt.Errorf("sim: fleet phys_bytes %d below the machine minimum %d", s.PhysBytes, vmm.MinPhysBytes)
	}
	if s.Policy != "" && !policyKnown(s.Policy) {
		return fmt.Errorf("sim: unknown arbitration policy %q", s.Policy)
	}
	if s.EscalateTo != "" && !policyKnown(s.EscalateTo) {
		return fmt.Errorf("sim: unknown escalation policy %q", s.EscalateTo)
	}
	if s.HeapPolicy != "" && !heappolicy.Known(s.HeapPolicy) {
		return fmt.Errorf("sim: unknown heap policy %q (valid: %v)", s.HeapPolicy, heappolicy.Names())
	}
	if err := negative(-1, field{"quantum", int64(s.Quantum)}, field{"balance_every_ns", s.BalanceEveryNS}); err != nil {
		return err
	}
	for i, t := range s.Tenants {
		if !kindKnown(t.Collector) {
			return fmt.Errorf("sim: tenant %d: unknown collector %q", i, t.Collector)
		}
		if t.HeapBytes == 0 {
			return fmt.Errorf("sim: tenant %d: heap_bytes is zero", i)
		}
		if t.TracePath == "" && t.Synth == nil && t.Program.Name == "" {
			return fmt.Errorf("sim: tenant %d: no workload (set program, synth, or trace_path)", i)
		}
		if t.Chaos != "" {
			if _, ok := fault.ByName(t.Chaos, 0); !ok {
				return fmt.Errorf("sim: tenant %d: unknown chaos regime %q", i, t.Chaos)
			}
		}
		if t.HeapPolicy != "" && !heappolicy.Known(t.HeapPolicy) {
			return fmt.Errorf("sim: tenant %d: unknown heap policy %q (valid: %v)", i, t.HeapPolicy, heappolicy.Names())
		}
		if err := negative(i, field{"weight", int64(t.Weight)}); err != nil {
			return err
		}
	}
	return nil
}

// LoadFleetSpec parses a tenant-spec file (strict JSON: unknown fields
// and anything after the one JSON value are errors, so typos and
// concatenated files fail loudly) and validates it.
func LoadFleetSpec(data []byte) (FleetSpec, error) {
	var s FleetSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return FleetSpec{}, fmt.Errorf("sim: fleet spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return FleetSpec{}, fmt.Errorf("sim: fleet spec: trailing data after the JSON value")
	}
	if err := s.Validate(); err != nil {
		return FleetSpec{}, err
	}
	return s, nil
}

// defaultFleetPrograms is the benchmark rotation DefaultFleetSpec deals
// tenants from: small-to-mid heaps so a 16-tenant fleet stays tractable.
var defaultFleetPrograms = []string{"compress", "db", "raytrace", "jess"}

// DefaultFleetSpec builds the standard mixed fleet used by gcsim -fleet
// and the bench experiment: n tenants alternating BC (cooperative) with
// non-cooperating collectors over a rotation of benchmark programs and
// two synthesized workloads, on a machine holding ~65% of the fleet's
// summed heaps. Two tenants are noisy neighbors: double weight plus the
// "thrash" chaos regime (pressure spikes and dropped notifications).
// The cascade detector and ladder are armed; Policy is left for the
// caller to choose so policies can be compared on an otherwise
// identical fleet.
func DefaultFleetSpec(n int, scale float64, seed, chaosSeed int64) FleetSpec {
	if n <= 0 {
		n = 16
	}
	if scale <= 0 {
		scale = 1.0
	}
	uncooperative := []CollectorKind{CopyMS, GenMS, GenCopy, MarkSweep}
	spec := FleetSpec{
		Seed:      seed,
		ChaosSeed: chaosSeed,
		Quantum:   512,

		// A major fault costs 5ms of simulated time (vmm.DefaultCosts), so
		// the fleet-wide fault rate saturates at 20 per 100ms window; 12
		// means the fleet spends over half its time servicing faults —
		// thrashing by any definition.
		CascadeMajorFaults: 12,
	}
	var sumHeap uint64
	for i := 0; i < n; i++ {
		var ts TenantSpec
		switch {
		case i%8 == 5:
			// A synthesized Markov-lifetime tenant: programs the spec
			// table cannot express, exercising the trace engine in-fleet.
			allocs := int(80_000 * scale)
			if allocs < 2_000 {
				allocs = 2_000
			}
			ts = TenantSpec{
				Collector: BC,
				HeapBytes: mem.RoundUpPage(4 << 20),
				Synth: &workload.SynthParams{
					Model: "markov", Allocs: allocs, Live: 800,
					Seed: seed + int64(i), Name: fmt.Sprintf("markov-%d", i),
				},
			}
		case i%8 == 7:
			allocs := int(60_000 * scale)
			if allocs < 2_000 {
				allocs = 2_000
			}
			ts = TenantSpec{
				Collector: CopyMS,
				HeapBytes: mem.RoundUpPage(4 << 20),
				Synth: &workload.SynthParams{
					Model: "ramp", Allocs: allocs, Live: 600,
					Seed: seed + int64(i), Name: fmt.Sprintf("ramp-%d", i),
				},
			}
		default:
			prog, _ := mutator.ByName(defaultFleetPrograms[i%len(defaultFleetPrograms)])
			prog = prog.Scale(scale)
			kind := BC
			if i%2 == 1 {
				kind = uncooperative[(i/2)%len(uncooperative)]
			}
			// ~2× the program's scaled minimum heap: roomy when alone,
			// contended when the whole fleet is resident.
			ts = TenantSpec{
				Collector: kind,
				Program:   prog,
				HeapBytes: mem.RoundUpPage(2 * prog.MinHeap),
			}
		}
		// Two noisy neighbors: double weight and per-tenant chaos.
		if n >= 4 && (i == n/2 || i == n-1) {
			ts.Chaos = "thrash"
			ts.Weight = 2
		}
		sumHeap += ts.HeapBytes
		spec.Tenants = append(spec.Tenants, ts)
	}
	phys := mem.RoundUpPage(uint64(0.65 * float64(sumHeap)))
	if phys < vmm.MinPhysBytes {
		phys = vmm.MinPhysBytes
	}
	spec.PhysBytes = phys
	return spec
}
