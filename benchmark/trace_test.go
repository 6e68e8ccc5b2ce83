package main

import "testing"

// TestSelfTimes: a span's self time is its duration minus the union of its
// children's intervals, clipped to the span.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a by 10
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past the parent
		{Name: "a.inner", Start: 15, End: 20, Parent: 1},
		{Name: "op", Start: 200, End: 250, Parent: -1}, // a second op without children
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"op":      (100 - 50 - 10) + 50, // children cover [10,60] and [90,100]
		"a":       30 - 5,
		"b":       30,
		"c":       30,
		"a.inner": 5,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %q = %d, want %d", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("self times %v, want exactly %v", got, want)
	}
}

func TestTracerSumsPerOperation(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{Name: "stage", Start: 0, End: 2e6, Op: 1},
		{Name: "stage", Start: 5e6, End: 6e6, Op: 1},
		{Name: "other", Start: 0, End: 9e6, Op: 1},
		{Name: "stage", Start: 0, End: 4e6, Op: 0},
	}
	got := tr.opSumsMs("stage")
	if len(got) != 2 || got[0] != 4 || got[1] != 3 {
		t.Errorf("opSumsMs = %v, want [4 3] (operation 0, then 1)", got)
	}
	tr.count("depth", 3)
	tr.count("depth", 7)
	tr.count("depth", 5)
	if tr.counterMax("depth") != 7 || tr.counterSum("depth") != 15 {
		t.Errorf("counter max %v sum %v, want 7 and 15", tr.counterMax("depth"), tr.counterSum("depth"))
	}
}

// TestNilTracerRecordsNothing: the untraced run shares the workload code and
// must be able to call every tracer method on nil.
func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1, 0)
	tr.end(id)
	tr.count("c", 1)
	if tr.durationsMs("x") != nil || tr.opSumsMs("x") != nil || tr.counterMax("c") != 0 || tr.counterSum("c") != 0 {
		t.Error("nil tracer returned data")
	}
}
