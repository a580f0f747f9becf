package main

import (
	"reflect"
	"testing"
)

// Self time is a span's duration minus what its children cover.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "job", StartNS: 0, EndNS: 100, Parent: -1},     // 0: two children
		{Name: "step", StartNS: 10, EndNS: 40, Parent: 0},     // 1: sibling of 3, one child
		{Name: "pause", StartNS: 15, EndNS: 35, Parent: 1},    // 2: nested, one child
		{Name: "step", StartNS: 50, EndNS: 90, Parent: 0},     // 3: leaf sibling
		{Name: "mark", StartNS: 20, EndNS: 30, Parent: 2},     // 4: innermost leaf
		{Name: "other", StartNS: 200, EndNS: 260, Parent: -1}, // 5: a second root
	}
	want := []int64{
		100 - 30 - 40, // job minus both steps
		30 - 20,       // first step minus its pause
		20 - 10,       // pause minus mark
		40,
		10,
		60,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	var total int64
	for _, s := range selfTimes(spans) {
		total += s
	}
	if total != 100+60 {
		t.Errorf("self times sum to %d, want the roots' durations (160)", total)
	}
}

func TestTotalsByKeySplitsPassesAndJobs(t *testing.T) {
	spans := []span{
		{Name: "job", Job: "a", StartNS: 0, EndNS: 10, Parent: -1, Pass: 0},
		{Name: "step", Job: "a", StartNS: 2, EndNS: 5, Parent: 0, Pass: 0},
		{Name: "step", Job: "a", StartNS: 6, EndNS: 8, Parent: 0, Pass: 0},
		{Name: "step", Job: "b", StartNS: 11, EndNS: 12, Parent: -1, Pass: 0},
		{Name: "job", Job: "a", StartNS: 20, EndNS: 40, Parent: -1, Pass: 1},
	}
	got := totalsByKey(spans, 2)
	want0 := map[spanKey]layerTotals{
		{"a", "step"}: {Count: 2, SelfNS: 5},
		{"a", "job"}:  {Count: 1, SelfNS: 5},
		{"b", "step"}: {Count: 1, SelfNS: 1},
	}
	if !reflect.DeepEqual(got[0], want0) {
		t.Errorf("pass 0 totals = %v, want %v", got[0], want0)
	}
	if want1 := (map[spanKey]layerTotals{{"a", "job"}: {Count: 1, SelfNS: 20}}); !reflect.DeepEqual(got[1], want1) {
		t.Errorf("pass 1 totals = %v, want %v", got[1], want1)
	}
}

func TestRecorderNestsAndUnwinds(t *testing.T) {
	r := &spanRecorder{job: "j"}
	r.begin("a")
	r.begin("b")
	r.end("b")
	r.begin("c")
	r.begin("d")
	r.unwind(1) // as a recovered panic inside d leaves it
	r.end("a")
	if len(r.stack) != 0 {
		t.Fatalf("%d spans left open", len(r.stack))
	}
	wantParents := []int{-1, 0, 0, 2}
	for i, s := range r.spans {
		if s.Parent != wantParents[i] || s.Job != "j" {
			t.Errorf("span %d (%s): parent %d job %q, want parent %d job j", i, s.Name, s.Parent, s.Job, wantParents[i])
		}
		if s.EndNS < s.StartNS {
			t.Errorf("span %d (%s) ends before it starts", i, s.Name)
		}
	}

	defer func() {
		if recover() == nil {
			t.Error("ending a span that is not the innermost open one must panic")
		}
	}()
	r.begin("x")
	r.end("y")
}
