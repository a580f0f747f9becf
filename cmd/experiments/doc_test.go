package main

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"bookmarkgc/internal/bench"
)

// TestEveryExperimentAndFlagIsDocumented holds the package comment to the
// experiment registry and the flag set: an experiment added to
// bench.Experiments must be in its list of ids, and a flag added to run
// must be described.
func TestEveryExperimentAndFlagIsDocumented(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, _ := strings.Cut(string(src), "\npackage main")
	_, ids, _ := strings.Cut(doc, "// Experiment ids:")
	ids, _, _ = strings.Cut(ids, "\n//\n")
	for _, e := range bench.Experiments() {
		if !regexp.MustCompile(`\b` + regexp.QuoteMeta(e.ID) + `\b`).MatchString(ids) {
			t.Errorf("experiment %s is not in the package comment's list of ids", e.ID)
		}
	}

	code, _, usage := exec("-h")
	flags := regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(usage, -1)
	if code != 0 || len(flags) == 0 {
		t.Fatalf("-h: exit %d, no flags in\n%s", code, usage)
	}
	for _, f := range flags {
		word := regexp.MustCompile(`(^|[^\w-])-` + regexp.QuoteMeta(f[1]) + `($|[^\w-])`)
		if !word.MatchString(doc) {
			t.Errorf("-%s is not in the package comment", f[1])
		}
	}
}
