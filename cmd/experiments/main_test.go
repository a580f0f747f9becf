package main

import (
	"bytes"
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

// TestResumeServesEverythingFromCache: a sweep persisted to -cache-dir is
// reproduced byte for byte from the store alone.
func TestResumeServesEverythingFromCache(t *testing.T) {
	store := filepath.Join(t.TempDir(), "store")
	sweep := []string{"-run", "ablate", "-scale", "0.02", "-cache-dir", store}
	code, fresh, stderr := exec(sweep...)
	if code != 0 || !strings.Contains(fresh, "ablate") {
		t.Fatalf("fresh sweep: exit %d\n%s%s", code, fresh, stderr)
	}
	code, resumed, stderr := exec(append(sweep, "-resume", "-expect-cached")...)
	if code != 0 {
		t.Fatalf("resumed sweep: exit %d, want 0 (everything cached)\n%s", code, stderr)
	}
	if resumed != fresh {
		t.Errorf("resumed report differs from the fresh one\n--- fresh\n%s--- resumed\n%s", fresh, resumed)
	}
	// The same request against an empty store has to run its jobs, which
	// -expect-cached reports as exit 3.
	sweep[len(sweep)-1] = filepath.Join(t.TempDir(), "empty")
	if code, _, _ := exec(append(sweep, "-resume", "-expect-cached")...); code != 3 {
		t.Errorf("-expect-cached over an empty store: exit %d, want 3", code)
	}
}

func TestRejections(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-format xml", `-format "xml" must be text or json`},
		{"-resume -cache-dir=", "-resume needs a persistent store"},
		{"-mark-workers 0", "-mark-workers 0 must be at least 1"},
		{"-run nosuch -cache-dir=", `unknown experiment "nosuch"`},
		{"-nosuchflag", "flag provided but not defined"},
	} {
		code, stdout, stderr := exec(strings.Fields(tc.args)...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, tc.want) {
			t.Errorf("experiments %s: exit %d, stdout %q, stderr %q; want exit 2 and %q", tc.args, code, stdout, stderr, tc.want)
		}
	}
}

func TestList(t *testing.T) {
	code, stdout, _ := exec("-list")
	if code != 0 || !strings.Contains(stdout, "fig4") || !strings.Contains(stdout, "table1") {
		t.Errorf("-list: exit %d\n%s", code, stdout)
	}
}
