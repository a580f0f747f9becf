package mem_test

import (
	"runtime"
	"testing"

	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/vmm"
)

// TestDroppedProcReturnsBodies: a Space built by vmm.NewProc sits in a
// cycle — the Space faults to its Proc, and the Proc holds the Space —
// and the Go collector never frees a cycle that carries a finalizer. Its
// bodies must still come back to the pool when the machine is dropped
// without Release, so whatever returns them must not hang off the cycle.
func TestDroppedProcReturnsBodies(t *testing.T) {
	const procs, pages = 8, 64
	mem.ReclaimDropped(t, mem.OutstandingBodies())
	held := mem.OutstandingBodies()
	var machines []*vmm.VMM
	for i := 0; i < procs; i++ {
		v := vmm.New(vmm.NewClock(), 4*pages*mem.PageSize, vmm.DefaultCosts())
		p := v.NewProc("tenant", (pages+1)*mem.PageSize)
		for pg := mem.PageID(1); pg <= pages; pg++ {
			p.Space().WriteWord(mem.PageAddr(pg), uint64(i)<<16|uint64(pg))
		}
		machines = append(machines, v)
	}
	if got := mem.OutstandingBodies() - held; got < procs*pages/2 {
		t.Fatalf("%d procs of %d written pages hold only %d bodies", procs, pages, got)
	}
	runtime.KeepAlive(machines) // dropped from here on
	mem.ReclaimDropped(t, held)
}
