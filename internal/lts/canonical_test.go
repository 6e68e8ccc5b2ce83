package lts

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestCanonicalIDsBuildNoMap: both constructors name state i "s<i>" and
// Index parses those IDs back to indexes; the parser accepts exactly the
// canonical spelling of a state below the count.
func TestCanonicalIDsBuildNoMap(t *testing.T) {
	const n = 12
	built, err := FromParts(n, 0, []BulkEdge{{From: 0, To: n - 1, Label: StringLabel("a")}})
	if err != nil {
		t.Fatalf("FromParts: %v", err)
	}
	restored, err := RestoreCompiled(built.Parts())
	if err != nil {
		t.Fatalf("RestoreCompiled: %v", err)
	}
	for name, l := range map[string]*LTS{"FromParts": built, "RestoreCompiled": restored} {
		for i := int32(0); i < n; i++ {
			if id := l.StateAt(i); id != StateID(fmt.Sprint("s", i)) {
				t.Errorf("%s: StateAt(%d) = %q", name, i, id)
			}
			if s, ok := l.Index(l.StateAt(i)); !ok || s != i {
				t.Errorf("%s: Index(%q) = (%d, %v), want (%d, true)", name, l.StateAt(i), s, ok, i)
			}
		}
		for _, id := range []StateID{"", "s", "S1", "s01", "s00", "s+1", "s-1", " s1", "s1 ", "s1x", "s12", "s99999999999", "s4294967296"} {
			if s, ok := l.Index(id); ok {
				t.Errorf("%s: Index(%q) = %d, want a miss", name, id, s)
			}
		}
	}
	// The widths change at every power of ten.
	ids := canonicalIDs(1001)
	for _, i := range []int{0, 9, 10, 99, 100, 999, 1000} {
		if want := StateID(fmt.Sprint("s", i)); ids[i] != want {
			t.Errorf("canonicalIDs(1001)[%d] = %q, want %q", i, ids[i], want)
		}
	}
}

// ptrLabel is a label whose identity is its address.
type ptrLabel struct{ s string }

func (p *ptrLabel) LabelString() string { return p.s }

// TestTransitionAtKeepsLabelIdentity: transitions are assembled on demand
// from the dense arrays, and each carries the very Label value it was built
// with — before and after Relabeled, which leaves its receiver untouched.
func TestTransitionAtKeepsLabelIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 50; round++ {
		n := 1 + rng.Intn(20)
		ids := canonicalIDs(n)
		// Two distinct objects per label string, so identity is observable.
		edges := make([]BulkEdge, rng.Intn(60))
		for e := range edges {
			edges[e] = BulkEdge{From: int32(rng.Intn(n)), To: int32(rng.Intn(n)), Label: &ptrLabel{fmt.Sprint("a", rng.Intn(3))}}
		}
		l, err := FromParts(n, 0, edges)
		if err != nil {
			t.Fatalf("round %d: FromParts: %v", round, err)
		}
		relabels := make([]Label, len(edges))
		for e := range relabels {
			relabels[e] = &ptrLabel{fmt.Sprint("b", e%4)}
		}
		r, err := l.Relabeled(relabels)
		if err != nil {
			t.Fatalf("round %d: Relabeled: %v", round, err)
		}
		for e, want := range edges {
			for name, c := range map[string]struct {
				l     *LTS
				label Label
			}{"built": {l, want.Label}, "relabeled": {r, relabels[e]}} {
				got := c.l.TransitionAt(int32(e))
				if got.From != ids[want.From] || got.To != ids[want.To] || got.Label != c.label {
					t.Fatalf("round %d: %s transition %d = %v (label %p), want %s -> %s with label %p",
						round, name, e, got, got.Label, ids[want.From], ids[want.To], c.label)
				}
				if all := c.l.Transitions(); all[e] != got {
					t.Fatalf("round %d: %s Transitions()[%d] = %v, TransitionAt = %v", round, name, e, all[e], got)
				}
			}
		}
	}
}
