package lts

import (
	"math/rand"
	"reflect"
	"testing"

	"privascope/internal/proptest"
)

// The properties here run in the internal test package so they can compare
// against the frozen reference implementations (minimizeReference) and the
// LTS's internals. internal/proptest is std-lib-only precisely so
// this lowest layer can use the harness without an import cycle.

// TestPropCompiledRoundTrip: an LTS built from a random collected graph
// inverts exactly — states, dense indices, initial state, edges, both CSR
// layouts and the label table all map back to the collected lists.
func TestPropCompiledRoundTrip(t *testing.T) {
	proptest.Run(t, func(seed int64, rng *rand.Rand) error {
		g := randomGraph(rng, 30, 120, 6)
		return checkBuiltFrom(g, g.build())
	})
}

// TestPropMinimizeMatchesReference: the integer-signature Minimize agrees
// with the frozen pre-CSR reference on every random LTS — same mapping, same
// quotient rendering.
func TestPropMinimizeMatchesReference(t *testing.T) {
	proptest.Run(t, func(seed int64, rng *rand.Rand) error {
		l := randomLTS(rng, 30, 120, 4)
		gotMin, gotMap := l.Minimize()
		wantMin, wantMap := minimizeReference(l)
		if !reflect.DeepEqual(gotMap, wantMap) {
			t.Fatalf("seed %d: state mapping differs\n got: %v\nwant: %v", seed, gotMap, wantMap)
		}
		if got, want := gotMin.String(), wantMin.String(); got != want {
			t.Fatalf("seed %d: quotient differs\n got:\n%s\nwant:\n%s", seed, got, want)
		}
		return nil
	})
}

// TestPropMinimizeIsIdempotent: a quotient is already minimal — minimizing
// it again merges nothing.
func TestPropMinimizeIsIdempotent(t *testing.T) {
	proptest.Run(t, func(seed int64, rng *rand.Rand) error {
		l := randomLTS(rng, 30, 120, 4)
		min, _ := l.Minimize()
		again, mapping := min.Minimize()
		if again.StateCount() != min.StateCount() || again.TransitionCount() != min.TransitionCount() {
			t.Fatalf("seed %d: second minimisation changed size: %d/%d -> %d/%d", seed,
				min.StateCount(), min.TransitionCount(), again.StateCount(), again.TransitionCount())
		}
		for id, rep := range mapping {
			if id != rep {
				t.Fatalf("seed %d: second minimisation merged %s into %s", seed, id, rep)
			}
		}
		return nil
	})
}

// TestPropMinimizeRespectingHonoursClasses: MinimizeRespecting never merges
// states the classifier separates, refines plain Minimize (never coarser),
// and degenerates to plain Minimize under a constant classifier.
func TestPropMinimizeRespectingHonoursClasses(t *testing.T) {
	proptest.Run(t, func(seed int64, rng *rand.Rand) error {
		l := randomLTS(rng, 30, 120, 4)

		// Random classifier with a handful of classes.
		classes := make(map[StateID]string)
		for _, id := range l.StateIDs() {
			classes[id] = string(rune('a' + rng.Intn(3)))
		}
		classOf := func(id StateID) string { return classes[id] }

		min, mapping := l.MinimizeRespecting(classOf)
		for id, rep := range mapping {
			if classes[id] != classes[rep] {
				t.Fatalf("seed %d: %s (class %s) merged into %s (class %s)",
					seed, id, classes[id], rep, classes[rep])
			}
		}
		plainMin, plainMap := l.Minimize()
		if min.StateCount() < plainMin.StateCount() {
			t.Fatalf("seed %d: class-respecting quotient has %d states, plain quotient %d — refinement cannot be coarser",
				seed, min.StateCount(), plainMin.StateCount())
		}
		// Refinement: states separated by plain Minimize stay separated.
		for id, rep := range plainMap {
			if mapping[id] == mapping[rep] && plainMap[id] != plainMap[rep] {
				t.Fatalf("seed %d: class-respecting quotient merged %s and %s which plain Minimize separates",
					seed, id, rep)
			}
		}

		constMin, constMap := l.MinimizeRespecting(func(StateID) string { return "k" })
		if !reflect.DeepEqual(constMap, plainMap) {
			t.Fatalf("seed %d: constant classifier diverged from plain Minimize", seed)
		}
		if constMin.String() != plainMin.String() {
			t.Fatalf("seed %d: constant-classifier quotient differs from plain quotient", seed)
		}
		return nil
	})
}
