package lts

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// canonicalIDs returns s0…s<n-1>.
func canonicalIDs(n int) []StateID {
	ids := make([]StateID, n)
	for i := range ids {
		ids[i] = StateID(fmt.Sprintf("s%d", i))
	}
	return ids
}

// TestCanonicalIDsBuildNoMap: an LTS whose state i is "s<i>" parses its IDs
// back to indexes and keeps no ID map, through both constructors; the parser
// accepts exactly the canonical spelling of a state below the count.
func TestCanonicalIDsBuildNoMap(t *testing.T) {
	const n = 12
	built, err := FromParts(canonicalIDs(n), 0, []BulkEdge{{From: 0, To: n - 1, Label: StringLabel("a")}})
	if err != nil {
		t.Fatalf("FromParts: %v", err)
	}
	restored, err := RestoreCompiled(built.Parts())
	if err != nil {
		t.Fatalf("RestoreCompiled: %v", err)
	}
	for name, l := range map[string]*LTS{"FromParts": built, "RestoreCompiled": restored} {
		if l.ids != nil {
			t.Errorf("%s: built an ID map for canonical IDs", name)
		}
		for i := int32(0); i < n; i++ {
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
}

// TestNonCanonicalIDsKeepAMap: any other ID list — canonical spellings out
// of place included — is indexed through the map, and a duplicate fails both
// constructors.
func TestNonCanonicalIDsKeepAMap(t *testing.T) {
	swapped, err := FromParts([]StateID{"s1", "s0"}, 0, nil)
	if err != nil {
		t.Fatalf("FromParts: %v", err)
	}
	if swapped.ids == nil {
		t.Fatalf("out-of-place canonical IDs built no ID map")
	}
	if s, ok := swapped.Index("s1"); !ok || s != 0 {
		t.Errorf(`Index("s1") = (%d, %v), want (0, true)`, s, ok)
	}

	for _, ids := range [][]StateID{{"s0", "s1", "s1"}, {"a", "b", "a"}, {"s0", "x", "s0"}} {
		if _, err := FromParts(ids, 0, nil); err == nil || !strings.Contains(err.Error(), "duplicate") {
			t.Errorf("FromParts(%v) = %v, want a duplicate-ID error", ids, err)
		}
		p := buildRestoreFixture().Parts()
		p.States = append(append([]StateID(nil), ids...), "y")
		if _, err := RestoreCompiled(p); err == nil || !strings.Contains(err.Error(), "duplicate") {
			t.Errorf("RestoreCompiled with states %v = %v, want a duplicate-ID error", p.States, err)
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
		if round%2 == 1 {
			rng.Shuffle(n, func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		}
		// Two distinct objects per label string, so identity is observable.
		edges := make([]BulkEdge, rng.Intn(60))
		for e := range edges {
			edges[e] = BulkEdge{From: int32(rng.Intn(n)), To: int32(rng.Intn(n)), Label: &ptrLabel{fmt.Sprint("a", rng.Intn(3))}}
		}
		l, err := FromParts(ids, 0, edges)
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
