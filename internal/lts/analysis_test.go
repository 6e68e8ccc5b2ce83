package lts

import (
	"strings"
	"testing"
)

// analysisFixture builds the diamond LTS used across these tests:
//
//	s0 --a--> s1 --c--> s3
//	s0 --b--> s2 --d--> s3 ; s3 --e--> s4 ; s5 (unreachable)
func analysisFixture() *graph {
	g := newGraph().init("s0").
		edge("s0", "s1", StringLabel("a")).
		edge("s0", "s2", StringLabel("b")).
		edge("s1", "s3", StringLabel("c")).
		edge("s2", "s3", StringLabel("d")).
		edge("s3", "s4", StringLabel("e"))
	g.state("s5")
	return g
}

func TestTraceEnd(t *testing.T) {
	l := analysisFixture().build()
	if end := (Trace{}).End("s0"); end != "s0" {
		t.Errorf("empty trace End = %s, want the start state", end)
	}
	trace, err := l.ShortestTraceTo("s4")
	if err != nil {
		t.Fatal(err)
	}
	if end := trace.End("s0"); end != "s4" {
		t.Errorf("trace End = %s, want s4", end)
	}
}

func TestFindStatesRequiresInitial(t *testing.T) {
	g := newGraph()
	g.state("s0")
	l := g.build()
	if _, err := l.FindStates(func(StateID) bool { return true }); err != ErrNoInitialState {
		t.Errorf("FindStates without initial: err = %v, want ErrNoInitialState", err)
	}
	if _, err := l.FindTransitions(func(Transition) bool { return true }); err != ErrNoInitialState {
		t.Errorf("FindTransitions without initial: err = %v, want ErrNoInitialState", err)
	}
}

func TestFindStatesExcludesUnreachable(t *testing.T) {
	l := analysisFixture().build()
	states, err := l.FindStates(func(StateID) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range states {
		if id == "s5" {
			t.Error("FindStates returned the unreachable state s5")
		}
	}
	if len(states) != 5 {
		t.Errorf("FindStates(true) = %v, want the 5 reachable states", states)
	}
}

func TestFindTransitionsPredicateAndReachability(t *testing.T) {
	l := analysisFixture().edge("s5", "s4", StringLabel("c")).build() // from an unreachable state
	trans, err := l.FindTransitions(func(tr Transition) bool { return tr.Label.LabelString() == "c" })
	if err != nil {
		t.Fatal(err)
	}
	if len(trans) != 1 || trans[0].From != "s1" {
		t.Errorf("FindTransitions(c) = %v, want only the reachable s1->s3", trans)
	}
}

func TestExistsOnInitialState(t *testing.T) {
	l := analysisFixture().build()
	found, trace, err := l.Exists(func(id StateID) bool { return id == "s0" })
	if err != nil || !found {
		t.Fatalf("Exists(s0) = %v, %v", found, err)
	}
	if len(trace) != 0 {
		t.Errorf("witness for the initial state should be empty, got %v", trace)
	}
}

func TestAlwaysPropagatesMissingInitial(t *testing.T) {
	if _, _, err := newGraph().build().Always(func(StateID) bool { return true }); err != ErrNoInitialState {
		t.Errorf("Always without initial: err = %v, want ErrNoInitialState", err)
	}
}

func TestAlwaysCounterExampleIsShortest(t *testing.T) {
	l := analysisFixture().build()
	ok, counter, err := l.Always(func(id StateID) bool { return id != "s4" })
	if err != nil || ok {
		t.Fatalf("Always(!s4) = %v, %v", ok, err)
	}
	if len(counter) != 3 || counter.End("s0") != "s4" {
		t.Errorf("counter-example = %v, want a shortest 3-step trace to s4", counter)
	}
}

func TestShortestTraceToMissingInitial(t *testing.T) {
	if _, err := newGraph().build().ShortestTraceTo("x"); err != ErrNoInitialState {
		t.Errorf("ShortestTraceTo without initial: err = %v, want ErrNoInitialState", err)
	}
}

func TestShortestTraceFromUnknownStart(t *testing.T) {
	l := analysisFixture().build()
	if trace, ok := l.shortestTrace("nowhere", func(StateID) bool { return true }); ok || trace != nil {
		t.Errorf("shortestTrace(nowhere) = %v, %v, want no trace", trace, ok)
	}
	if traces := l.TracesFrom("nowhere", 3, -1); len(traces) != 0 {
		t.Errorf("TracesFrom(nowhere) = %v, want none", traces)
	}
}

func TestTracesFromBounds(t *testing.T) {
	l := analysisFixture().build()
	// maxTraces = 0 yields nothing.
	if traces := l.TracesFrom("s0", 10, 0); len(traces) != 0 {
		t.Errorf("TracesFrom(maxTraces=0) = %v, want none", traces)
	}
	// Depth bound cuts paths short: both one-step prefixes appear.
	short := l.TracesFrom("s0", 1, -1)
	if len(short) != 2 {
		t.Fatalf("TracesFrom(depth=1) = %d traces, want 2", len(short))
	}
	for _, tr := range short {
		if len(tr) != 1 {
			t.Errorf("depth-1 trace has %d steps: %v", len(tr), tr)
		}
	}
	// Unbounded: two full simple paths to s4.
	full := l.TracesFrom("s0", 10, -1)
	if len(full) != 2 {
		t.Fatalf("TracesFrom = %d traces, want 2", len(full))
	}
	for _, tr := range full {
		if tr.End("s0") != "s4" {
			t.Errorf("trace does not reach s4: %v", tr)
		}
	}
}

func TestTraceStringRendersSteps(t *testing.T) {
	l := analysisFixture().build()
	trace, err := l.ShortestTraceTo("s4")
	if err != nil {
		t.Fatal(err)
	}
	s := trace.String()
	if !strings.Contains(s, "s3 --[e]--> s4") || strings.Count(s, "\n") != len(trace)-1 {
		t.Errorf("Trace.String() = %q", s)
	}
}
