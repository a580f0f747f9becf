package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"bookmarkgc/internal/metrics"
)

// WriteProm writes the Prometheus text exposition format (v0.0.4): the
// latest sample as gauges/counters, per-kind pause summaries with exact
// percentiles, and the telemetry layer's own counters. Metric order, HELP
// and TYPE lines, and number formatting are all fixed, so the output is
// golden-testable byte for byte.
func (c *Collector) WriteProm(w io.Writer) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	bw := bufio.NewWriter(w)

	var last [numColumns]int64
	for i := range last {
		last[i] = c.series.last(Column(i))
	}
	g := func(name, help, typ string, v int64) {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", name, help, name, typ, name, v)
	}
	fmt.Fprintf(bw, "# HELP gcsim_sim_time_seconds Simulated time at the last sample.\n")
	fmt.Fprintf(bw, "# TYPE gcsim_sim_time_seconds gauge\n")
	fmt.Fprintf(bw, "gcsim_sim_time_seconds %s\n", promFloat(float64(last[ColTimeNS])/1e9))
	g("gcsim_heap_used_pages", "Collector-accounted heap footprint in pages.", "gauge", last[ColHeapUsedPages])
	g("gcsim_heap_limit_pages", "Policy-effective heap limit in pages.", "gauge", last[ColHeapLimitPages])
	g("gcsim_resident_pages", "Process pages resident in physical memory.", "gauge", last[ColResidentPages])
	g("gcsim_pinned_frames", "Frames pinned away by signalmem.", "gauge", last[ColPinnedFrames])
	g("gcsim_free_frames", "Unallocated physical frames.", "gauge", last[ColFreeFrames])
	g("gcsim_in_pause", "1 when the last sample landed inside a pause.", "gauge", last[ColInPause])
	g("gcsim_minor_faults_total", "Minor (zero-fill) page faults.", "counter", last[ColMinorFaults])
	g("gcsim_major_faults_total", "Major (disk) page faults.", "counter", last[ColMajorFaults])
	g("gcsim_evictions_total", "Process pages evicted to the swap device.", "counter", last[ColEvictions])
	g("gcsim_alloc_bytes_total", "Bytes allocated by the mutator.", "counter", last[ColAllocBytes])
	g("gcsim_objects_bookmarked_total", "Objects bookmarked (BC).", "counter", last[ColBookmarks])
	g("gcsim_pages_evicted_total", "Heap pages processed for eviction (BC).", "counter", last[ColPagesEvicted])
	g("gcsim_gcs_total", "Collections completed (nursery + full).", "counter", last[ColGCs])

	fmt.Fprintf(bw, "# HELP gcsim_pause_seconds Stop-the-world pause durations by kind.\n")
	fmt.Fprintf(bw, "# TYPE gcsim_pause_seconds summary\n")
	var byKind [numPauseKinds]metrics.Timeline
	for k := range byKind {
		byKind[k] = c.timelineLocked(metrics.PauseKind(k))
	}
	for k, tl := range byKind {
		kind := metrics.PauseKind(k).String()
		for _, q := range [...]struct {
			label string
			p     float64
		}{{"0.5", 50}, {"0.95", 95}, {"0.99", 99}, {"0.999", 99.9}} {
			fmt.Fprintf(bw, "gcsim_pause_seconds{kind=%q,quantile=%q} %s\n",
				kind, q.label, promFloat(float64(tl.Percentile(q.p))/1e9))
		}
		fmt.Fprintf(bw, "gcsim_pause_seconds_sum{kind=%q} %s\n", kind, promFloat(float64(tl.TotalPause())/1e9))
		fmt.Fprintf(bw, "gcsim_pause_seconds_count{kind=%q} %d\n", kind, tl.Count())
	}
	fmt.Fprintf(bw, "# HELP gcsim_pause_max_seconds Longest pause observed, by kind.\n")
	fmt.Fprintf(bw, "# TYPE gcsim_pause_max_seconds gauge\n")
	for k, tl := range byKind {
		fmt.Fprintf(bw, "gcsim_pause_max_seconds{kind=%q} %s\n",
			metrics.PauseKind(k), promFloat(float64(tl.MaxPause())/1e9))
	}

	g("gcsim_telemetry_samples_total", "Time-series samples taken.", "counter", int64(c.series.Len()))
	g("gcsim_telemetry_flight_dumps_total", "Flight-recorder bundles written.", "counter", int64(c.flightDumps))
	ringDrops := c.ring.total - uint64(len(c.ring.buf))
	if c.ring.total < uint64(len(c.ring.buf)) {
		ringDrops = 0
	}
	g("gcsim_telemetry_ring_drops_total", "Flight-ring entries overwritten.", "counter", int64(ringDrops))
	return bw.Flush()
}

// promFloat renders a float the shortest way that round-trips, matching
// Prometheus client conventions closely enough for scrapes and exactly
// enough for golden tests.
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
