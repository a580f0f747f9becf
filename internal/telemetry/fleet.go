package telemetry

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// DumpQuota is a flight-dump budget, the one gate every telemetry
// collector's dumps pass: a fleet's, shared by every tenant's collector
// in one run, or the private one New makes. A fleet's prevents two
// failure modes: tenants writing into one FlightDir must not exhaust each
// other's allowance (a noisy neighbor dumping sixteen OOM bundles would
// otherwise silence everyone else), and fleet-level cascade bundles and
// tenant bundles must not crowd each other out — fleetReserve slots of
// the total are the cascades' alone, and the rest the tenants'.
type DumpQuota struct {
	mu sync.Mutex

	perTenant    int // max dumps any single tenant may write
	total        int // max dumps across the whole run, incl. the reserve
	fleetReserve int // slots of total only TryFleet can use, and all it can

	tenant     map[string]int
	tenantUsed int
	fleetUsed  int
}

// NewDumpQuota builds a quota of total dumps, at most perTenant of them
// to any one tenant and fleetReserve of them kept for the fleet.
func NewDumpQuota(perTenant, total, fleetReserve int) *DumpQuota {
	return &DumpQuota{
		perTenant:    perTenant,
		total:        total,
		fleetReserve: fleetReserve,
		tenant:       make(map[string]int),
	}
}

// TryTenant charges one dump slot to tag, reporting whether the dump may
// proceed. Tenants draw only from total-fleetReserve, so the fleet's
// cascade slots survive any amount of per-tenant noise.
func (q *DumpQuota) TryTenant(tag string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.tenant[tag] >= q.perTenant || q.tenantUsed >= q.total-q.fleetReserve {
		return false
	}
	q.tenant[tag]++
	q.tenantUsed++
	return true
}

// TryFleet charges one fleet-level dump slot (cascade bundles). The
// fleet draws only from its fleetReserve, so a cascading fleet leaves
// its tenants their slots.
func (q *DumpQuota) TryFleet() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.fleetUsed >= q.fleetReserve {
		return false
	}
	q.fleetUsed++
	return true
}

// FleetSlotsLeft reports whether TryFleet can still succeed, without
// charging a slot: a fleet need not assemble a bundle no slot would take.
func (q *DumpQuota) FleetSlotsLeft() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.fleetUsed < q.fleetReserve
}

// Used returns (tenant dumps, fleet dumps) written so far.
func (q *DumpQuota) Used() (tenant, fleet int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.tenantUsed, q.fleetUsed
}

// FairnessIndex is Jain's fairness index over xs: (Σx)² / (n·Σx²).
// 1.0 means perfectly even, 1/n means one tenant absorbs everything.
// Empty or all-zero input counts as perfectly fair.
func FairnessIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sumsq float64
	for _, x := range xs {
		sum += x
		sumsq += x * x
	}
	if sumsq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumsq)
}

// TenantFlightSnap is one tenant's state at the moment a fleet-level
// event (a cascade) fired, embedded in the FleetBundle.
type TenantFlightSnap struct {
	Tenant        string `json:"tenant"`
	Collector     string `json:"collector"`
	Cooperative   bool   `json:"cooperative"`
	ResidentPages int    `json:"resident_pages"`
	MajorFaults   uint64 `json:"major_faults"`
	Evictions     uint64 `json:"evictions"`
	PauseP99NS    int64  `json:"pause_p99_ns,omitempty"`
	Penalized     bool   `json:"penalized,omitempty"`
	Failed        string `json:"failed,omitempty"`
}

// FleetBundle is the fleet-wide flight dump written when the cascade
// detector trips: which window tripped it, what the arbiter did about
// it, and a per-tenant snapshot for postmortem attribution.
type FleetBundle struct {
	Schema        string             `json:"schema"`
	Reason        string             `json:"reason"`
	SimTimeNS     int64              `json:"sim_time_ns"`
	WindowNS      int64              `json:"window_ns"`
	WindowFaults  uint64             `json:"window_major_faults"`
	Threshold     uint64             `json:"threshold_major_faults"`
	SustainedFor  int                `json:"sustained_windows"`
	Policy        string             `json:"policy"`
	EscalatedTo   string             `json:"escalated_to,omitempty"`
	Fairness      float64            `json:"eviction_fairness"`
	AggMajor      uint64             `json:"agg_major_faults"`
	AggEvictions  uint64             `json:"agg_evictions"`
	ArbiterVetoes uint64             `json:"arbiter_vetoes"`
	Tenants       []TenantFlightSnap `json:"tenants"`
}

// FleetBundleSchema is the schema tag every fleet bundle carries.
const FleetBundleSchema = "gcsim-fleet-flight/v1"

// WriteFleetBundle writes b into dir through the quota's reserved fleet
// slots, returning the file path ("" when the quota or IO refused).
// seq distinguishes multiple cascades in one run.
func WriteFleetBundle(dir string, seq int, b *FleetBundle, q *DumpQuota) string {
	if dir == "" {
		return ""
	}
	if !q.TryFleet() {
		return ""
	}
	b.Schema = FleetBundleSchema
	if b.Reason == "" {
		b.Reason = "cascade-thrash"
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return ""
	}
	enc, data, err := encodeBundle(b)
	defer enc.release()
	if err != nil {
		return ""
	}
	path := filepath.Join(dir, fmt.Sprintf("fleet-%03d-%s.json", seq, b.Reason))
	if os.WriteFile(path, data, 0o644) != nil {
		return ""
	}
	return path
}
