package lts

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"privascope/internal/proptest"
)

// The properties here run in the internal test package so they can compare
// against the frozen reference implementations (minimizeReference) and the
// compiled view's internals. internal/proptest is std-lib-only precisely so
// this lowest layer can use the harness without an import cycle.

// TestPropCompiledRoundTrip: the compiled CSR view of a random LTS inverts
// exactly — states, dense indices, initial state, edges and labels all map
// back to the mutable structure.
func TestPropCompiledRoundTrip(t *testing.T) {
	proptest.Run(t, func(seed int64, rng *rand.Rand) error {
		l := randomLTS(rng, 30, 120, 6)
		c := l.Compiled()

		ids := l.StateIDs()
		if c.NumStates() != len(ids) {
			t.Fatalf("seed %d: NumStates = %d, want %d", seed, c.NumStates(), len(ids))
		}
		for i, id := range ids {
			if got := c.StateAt(int32(i)); got != id {
				t.Fatalf("seed %d: StateAt(%d) = %s, want %s", seed, i, got, id)
			}
			if dense, ok := c.Index(id); !ok || dense != int32(i) {
				t.Fatalf("seed %d: Index(%s) = (%d, %v), want (%d, true)", seed, id, dense, ok, i)
			}
		}

		wantInit, wantOK := l.Initial()
		gotIdx, gotOK := c.InitialIndex()
		if gotOK != wantOK || (wantOK && c.StateAt(gotIdx) != wantInit) {
			t.Fatalf("seed %d: initial state did not round-trip", seed)
		}

		trs := l.Transitions()
		if c.NumEdges() != len(trs) {
			t.Fatalf("seed %d: NumEdges = %d, want %d", seed, c.NumEdges(), len(trs))
		}
		for e, want := range trs {
			if got := c.TransitionAt(int32(e)); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: TransitionAt(%d) = %+v, want %+v", seed, e, got, want)
			}
			wantLabel := ""
			if want.Label != nil {
				wantLabel = want.Label.LabelString()
			}
			if got := c.LabelString(c.LabelID(int32(e))); got != wantLabel {
				t.Fatalf("seed %d: edge %d label = %q, want %q", seed, e, got, wantLabel)
			}
		}
		return nil
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

// aliasLabel renders like a StringLabel but is a different Label value, so a
// graph can carry equal-rendering labels that are not the same object.
type aliasLabel string

func (a aliasLabel) LabelString() string { return string(a) }

// TestPropBulkBornMatchesBuilderBorn: FromParts over a random dense state and
// edge list — nil labels, repeated objects and distinct labels rendering the
// same string included — is the LTS that New + AddState + SetInitial +
// AddTransitionUnchecked build from the same lists, on every observable
// surface down to the order of the interned label table.
func TestPropBulkBornMatchesBuilderBorn(t *testing.T) {
	proptest.Run(t, func(seed int64, rng *rand.Rand) error {
		n := 1 + rng.Intn(30)
		ids := make([]StateID, n)
		for i := range ids {
			ids[i] = StateID(fmt.Sprintf("s%d", i))
		}
		edges := make([]BulkEdge, 1+rng.Intn(120))
		for i := range edges {
			e := BulkEdge{From: int32(rng.Intn(n)), To: int32(rng.Intn(n))}
			switch name := fmt.Sprintf("a%d", rng.Intn(5)); rng.Intn(8) {
			case 0: // nil label
			case 1:
				e.Label = aliasLabel(name)
			case 2:
				e.Label = StringLabel("") // renders like nil
			default:
				e.Label = StringLabel(name)
			}
			edges[i] = e
		}
		initial := rng.Intn(n+1) - 1 // occasionally none

		bulk, err := FromParts(append([]StateID(nil), ids...), initial, edges)
		if err != nil {
			return err
		}
		built := New()
		for _, id := range ids {
			built.AddState(id, nil)
		}
		if initial >= 0 {
			built.SetInitial(ids[initial])
		}
		for _, e := range edges {
			built.AddTransitionUnchecked(ids[e.From], ids[e.To], e.Label)
		}

		if got, want := bulk.Compiled().Parts(), built.Compiled().Parts(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: compiled parts differ\n got: %+v\nwant: %+v", seed, got, want)
		}
		for _, id := range ids {
			if !reflect.DeepEqual(bulk.Outgoing(id), built.Outgoing(id)) {
				t.Fatalf("seed %d: Outgoing(%s) differs", seed, id)
			}
			if !reflect.DeepEqual(bulk.Incoming(id), built.Incoming(id)) {
				t.Fatalf("seed %d: Incoming(%s) differs", seed, id)
			}
		}
		gotJSON, err1 := bulk.MarshalJSON()
		wantJSON, err2 := built.MarshalJSON()
		if err1 != nil || err2 != nil || !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("seed %d: MarshalJSON differs (%v, %v)\n got: %s\nwant: %s", seed, err1, err2, gotJSON, wantJSON)
		}
		gotMin, gotMap := bulk.Minimize()
		wantMin, wantMap := built.Minimize()
		if !reflect.DeepEqual(gotMap, wantMap) || gotMin.String() != wantMin.String() {
			t.Fatalf("seed %d: Minimize differs\n got:\n%s\nwant:\n%s", seed, gotMin, wantMin)
		}
		return nil
	})
}
