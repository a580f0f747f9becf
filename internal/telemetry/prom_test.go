package telemetry

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"bookmarkgc/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// TestWritePromGolden locks the Prometheus exposition byte for byte
// against a golden file, using synthetic collector state so the test is
// independent of simulator behaviour. Any change to metric names, HELP
// text, ordering, or number formatting shows up as a diff here.
func TestWritePromGolden(t *testing.T) {
	c := New(Config{})
	c.collectorName = "BC"

	var row [numColumns]int64
	row[ColTimeNS] = 2_500_000_000
	row[ColHeapUsedPages] = 1200
	row[ColResidentPages] = 800
	row[ColPinnedFrames] = 64
	row[ColFreeFrames] = 4096
	row[ColMinorFaults] = 150
	row[ColMajorFaults] = 12
	row[ColEvictions] = 30
	row[ColAllocBytes] = 7_340_032
	row[ColBookmarks] = 42
	row[ColPagesEvicted] = 17
	row[ColGCs] = 9
	row[ColInPause] = 1
	c.series.push(&row)

	for _, p := range []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond} {
		c.pauses = append(c.pauses, PauseAttr{Pause: metrics.Pause{Dur: p, Kind: metrics.PauseNursery}})
	}
	c.pauses = append(c.pauses, PauseAttr{Pause: metrics.Pause{Dur: 4 * time.Second, Kind: metrics.PauseFull}})

	var buf bytes.Buffer
	if err := c.WriteProm(&buf); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	got := buf.Bytes()

	path := filepath.Join("testdata", "prom.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("prometheus exposition drifted from %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
