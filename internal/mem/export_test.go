package mem

// Pool counters for the external tests, which build Spaces through
// internal/vmm.
var (
	OutstandingBodies = outstandingBodies
	ReclaimDropped    = reclaimDropped
)
