package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/sim"
)

// physBytes converts a -phys megabyte figure at the given scale.
func physBytes(mb, scale float64) uint64 {
	return mem.RoundUpPage(uint64(mb * scale * (1 << 20)))
}

// fleetOpts carries the flags the fleet path reuses from the main set.
type fleetOpts struct {
	policy     string // -fleet-policy: arbitration override ("" = spec's)
	heapPolicy string // -heap-policy: heap-limit override ("" = spec's)
	scale      float64
	seed       int64
	chaosSeed  int64
	physMB     float64
	physSet    bool // -phys explicitly given (overrides the spec)
	seedSet    bool
	chaosSet   bool
	flightDir  string
	markWkrs   int
}

// loadFleet resolves the -fleet argument: "mixedN" builds the stock
// N-tenant mixed fleet (scale/seed/chaos-seed flags apply); anything
// else is a tenant-spec file (JSON, strict), whose phys/seed/chaos-seed
// the explicitly-set flags override.
func loadFleet(arg string, o fleetOpts) (sim.FleetSpec, error) {
	if rest, ok := strings.CutPrefix(arg, "mixed"); ok && !strings.ContainsAny(arg, "./") {
		n := 16
		if rest != "" {
			var err error
			if n, err = strconv.Atoi(rest); err != nil || n < 1 {
				return sim.FleetSpec{}, fmt.Errorf("bad -fleet %q: mixedN needs a positive tenant count", arg)
			}
		}
		spec := sim.DefaultFleetSpec(n, o.scale, o.seed, o.chaosSeed)
		if o.physSet {
			spec.PhysBytes = physBytes(o.physMB, o.scale)
		}
		return spec, nil
	}
	data, err := os.ReadFile(arg)
	if err != nil {
		return sim.FleetSpec{}, err
	}
	spec, err := sim.LoadFleetSpec(data)
	if err != nil {
		return sim.FleetSpec{}, err
	}
	if o.physSet {
		spec.PhysBytes = physBytes(o.physMB, o.scale)
	}
	if o.seedSet {
		spec.Seed = o.seed
	}
	if o.chaosSet {
		spec.ChaosSeed = o.chaosSeed
	}
	return spec, nil
}

// runFleetCLI executes one fleet and prints the deterministic fleet
// report: per-tenant summaries in spec order, then the fleet-level
// aggregates. Every figure is simulated-clock data, so the bytes are
// identical for any -mark-workers or host parallelism.
func runFleetCLI(arg string, o fleetOpts) {
	spec, err := loadFleet(arg, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gcsim: -fleet: %v\n", err)
		prof.Exit(2)
	}
	if o.policy != "" {
		spec.Policy = sim.ArbitrationPolicy(o.policy)
	}
	if o.heapPolicy != "" {
		spec.HeapPolicy = o.heapPolicy
	}
	if err := spec.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "gcsim: -fleet: %v\n", err)
		prof.Exit(2)
	}

	fr := sim.RunFleet(sim.FleetConfig{
		Spec:        spec,
		FlightDir:   o.flightDir,
		MarkWorkers: o.markWkrs,
	})
	checkErr(fr.Err)

	pol := string(fr.InitialPolicy)
	if fr.Policy != fr.InitialPolicy {
		pol += "->" + string(fr.Policy)
	}
	fmt.Printf("fleet: %d tenants, phys=%dB, policy=%s, cascades=%d\n",
		len(fr.Tenants), spec.PhysBytes, pol, fr.Cascades)
	failed := 0
	for i, r := range fr.Tenants {
		label := fmt.Sprintf("  %-14s", fr.Names[i])
		if r.Err != nil {
			fmt.Printf("%s FAILED: %v\n", label, r.Err)
			failed++
			continue
		}
		line := fmt.Sprintf(
			"%s exec=%.3fs gcs=%d majflt=%d evict=%d p99=%v",
			label, r.ElapsedSecs, r.Timeline.Count(),
			r.ProcStats.MajorFaults, r.ProcStats.Evictions,
			round(time.Duration(fr.PauseP99NS[i])))
		if ts := spec.Tenants[i]; ts.Chaos != "" {
			line += fmt.Sprintf(" chaos=%s", ts.Chaos)
		}
		fmt.Println(line)
	}
	fmt.Printf("fleet aggregates: major=%d minor=%d evict=%d vetoes=%d fairness=%.3f elapsed=%.3fs\n",
		fr.AggMajorFaults, fr.AggMinorFaults, fr.AggEvictions,
		fr.ArbiterVetoes, fr.Fairness, fr.ElapsedSecs)
	if fr.Escalated {
		fmt.Printf("fleet escalation: %s -> %s after a sustained cascade\n",
			fr.InitialPolicy, fr.Policy)
	}
	if len(fr.FleetDumps) > 0 {
		fmt.Printf("fleet dumps: %d cascade bundles -> %s\n", len(fr.FleetDumps), o.flightDir)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "gcsim: %d of %d tenants failed\n", failed, len(fr.Tenants))
		prof.Exit(1)
	}
}
