package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// exec runs the command in-process.
func exec(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// must is exec for a step that has to succeed; it returns stdout.
func must(t *testing.T, args ...string) string {
	t.Helper()
	code, stdout, stderr := exec(args...)
	if code != 0 {
		t.Fatalf("gctrace %v: exit %d\n%s", args, code, stderr)
	}
	return stdout
}

// TestRoundTrip records a run and checks the file: record prints the
// run's summary line, verify passes the file, and stat describes the
// recording under the hash record printed. gcsim's tests replay it.
func TestRoundTrip(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "j.gctrace")
	recorded := must(t, "record", "-o", trace, "-program", "pseudojbb", "-scale", "0.03")
	if !strings.Contains(recorded, "content hash ") || !strings.Contains(recorded, "\nBC/pseudojbb: exec=") {
		t.Fatalf("record printed no content hash or no summary line:\n%s", recorded)
	}
	if out := must(t, "verify", trace); !strings.Contains(out, ": OK (") {
		t.Errorf("verify: %s", out)
	}
	stat := must(t, "stat", trace)
	hash := recorded[strings.Index(recorded, "content hash "):]
	hash, _, _ = strings.Cut(hash, "\n")
	if !strings.Contains(stat, hash) || !strings.Contains(stat, "program pseudojbb") {
		t.Errorf("stat does not describe the recording (%s):\n%s", hash, stat)
	}
}

func TestUsageAndFailures(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.gctrace")
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{nil, 2, "usage: gctrace"},
		{[]string{"frobnicate"}, 2, "usage: gctrace"},
		{[]string{"replay", missing}, 2, "usage: gctrace"},
		{[]string{"stat"}, 2, "expected exactly one trace file argument"},
		{[]string{"verify", "a", "b"}, 2, "expected exactly one trace file argument"},
		{[]string{"record", "-nosuchflag"}, 2, "flag provided but not defined"},
		{[]string{"record"}, 1, "record: -o is required"},
		{[]string{"gen"}, 1, "gen: -o is required"},
		{[]string{"verify", missing}, 1, "no such file"},
		{[]string{"gen", "-o", missing, "-model", "nosuch"}, 1, "unknown synth model"},
	} {
		code, stdout, stderr := exec(tc.args...)
		if code != tc.code || stdout != "" || !strings.Contains(stderr, tc.want) {
			t.Errorf("gctrace %v: exit %d, stdout %q, stderr %q; want exit %d and %q", tc.args, code, stdout, stderr, tc.code, tc.want)
		}
	}
}

// TestRecordFailedWrite: a trace that cannot be written is exit 1, and
// nothing is left at -o (a link to /dev/full stands in for a full disk;
// removing the output removes the link).
func TestRecordFailedWrite(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	path := filepath.Join(t.TempDir(), "full.gctrace")
	if err := os.Symlink("/dev/full", path); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := exec("record", "-o", path, "-program", "pseudojbb", "-scale", "0.03")
	if code != 1 || stdout != "" || !strings.Contains(stderr, "record: ") {
		t.Errorf("record to a full device: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
	if _, err := os.Lstat(path); !os.IsNotExist(err) {
		t.Errorf("the failed trace was left behind (Lstat: %v)", err)
	}
}
