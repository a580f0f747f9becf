package main

import (
	"flag"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestEveryFlagIsDocumented holds the package comment and README.md to
// the flag table in parse: a flag added there must be described in both.
func TestEveryFlagIsDocumented(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, _ := strings.Cut(string(src), "\npackage main")
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	c, _ := parse(nil, io.Discard)
	n := 0
	c.fs.VisitAll(func(f *flag.Flag) {
		n++
		word := regexp.MustCompile(`(^|[^\w-])-` + regexp.QuoteMeta(f.Name) + `($|[^\w-])`)
		if !word.MatchString(doc) {
			t.Errorf("-%s is not in the package comment", f.Name)
		}
		if !word.Match(readme) {
			t.Errorf("-%s is not in README.md", f.Name)
		}
	})
	if n != 27 {
		t.Errorf("%d flags defined; the package comment and README.md say 27", n)
	}
}
