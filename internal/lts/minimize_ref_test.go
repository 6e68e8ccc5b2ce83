package lts

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// minimizeReference is the pre-CSR Minimize, kept verbatim as the behavioural
// reference for the integer-signature rewrite: per-round string signatures
// over a map-keyed partition, with stability detected by block-count
// equality.
func minimizeReference(l *LTS) (*LTS, map[StateID]StateID) {
	block := make(map[StateID]int, l.StateCount())
	for _, id := range l.states {
		if len(l.Outgoing(id)) == 0 {
			block[id] = 1
		} else {
			block[id] = 0
		}
	}
	blockCount := func(b map[StateID]int) int {
		set := make(map[int]bool, len(b))
		for _, v := range b {
			set[v] = true
		}
		return len(set)
	}
	for {
		sigOf := func(id StateID) string {
			outgoing := l.Outgoing(id)
			parts := make([]string, 0, len(outgoing))
			for _, t := range outgoing {
				label := ""
				if t.Label != nil {
					label = t.Label.LabelString()
				}
				parts = append(parts, fmt.Sprintf("%s\x00%d", label, block[t.To]))
			}
			sort.Strings(parts)
			return fmt.Sprintf("%d|%s", block[id], strings.Join(parts, "\x01"))
		}
		sigBlocks := make(map[string]int)
		newBlock := make(map[StateID]int, l.StateCount())
		for _, id := range l.states {
			sig := sigOf(id)
			b, ok := sigBlocks[sig]
			if !ok {
				b = len(sigBlocks)
				sigBlocks[sig] = b
			}
			newBlock[id] = b
		}
		stable := blockCount(newBlock) == blockCount(block)
		block = newBlock
		if stable {
			break
		}
	}

	repOf := make(map[int]StateID)
	mapping := make(map[StateID]StateID, l.StateCount())
	for _, id := range l.states {
		b := block[id]
		if _, ok := repOf[b]; !ok {
			repOf[b] = id
		}
		mapping[id] = repOf[b]
	}

	min := newGraph()
	for _, id := range l.states {
		if mapping[id] == id {
			min.state(id)
		}
	}
	if init, ok := l.Initial(); ok {
		min.init(mapping[init])
	}
	for _, t := range l.trs {
		min.edge(mapping[t.From], mapping[t.To], t.Label)
	}
	return min.build(), mapping
}

// TestMinimizeMatchesReference is the property test pinning the rewritten
// Minimize to the reference on a random corpus plus the layered fixtures:
// identical state-ID mappings and byte-identical quotient renderings.
func TestMinimizeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	corpus := []*LTS{
		buildLayered(6, 4),
		buildLayered(10, 8),
	}
	for i := 0; i < 120; i++ {
		corpus = append(corpus, randomLTS(rng, 30, 120, 4))
	}
	for i, l := range corpus {
		gotMin, gotMap := l.Minimize()
		wantMin, wantMap := minimizeReference(l)
		if !reflect.DeepEqual(gotMap, wantMap) {
			t.Fatalf("model %d: state mapping differs\n got: %v\nwant: %v", i, gotMap, wantMap)
		}
		if got, want := gotMin.String(), wantMin.String(); got != want {
			t.Fatalf("model %d: quotient differs\n got:\n%s\nwant:\n%s", i, got, want)
		}
		if got, want := gotMin.DOT(DOTOptions{}), wantMin.DOT(DOTOptions{}); got != want {
			t.Fatalf("model %d: quotient DOT differs", i)
		}
		if gotMin.StateCount() != wantMin.StateCount() || gotMin.TransitionCount() != wantMin.TransitionCount() {
			t.Fatalf("model %d: quotient size differs: %d/%d vs %d/%d", i,
				gotMin.StateCount(), gotMin.TransitionCount(), wantMin.StateCount(), wantMin.TransitionCount())
		}
	}
}

// TestMinimizeStability exercises the partition-equality stability check on a
// shape whose initial terminal/non-terminal numbering differs from the
// canonical first-encounter numbering (first state terminal): the rewritten
// loop must still converge to the reference partition.
func TestMinimizeStability(t *testing.T) {
	g := newGraph()
	g.state("t0") // terminal first, so initial numbering is renamed
	l := g.edge("a", "t0", StringLabel("x")).
		edge("b", "t0", StringLabel("x")).
		edge("c", "a", StringLabel("y")).
		edge("c", "b", StringLabel("y")).
		init("c").build()
	gotMin, gotMap := l.Minimize()
	wantMin, wantMap := minimizeReference(l)
	if !reflect.DeepEqual(gotMap, wantMap) {
		t.Fatalf("mapping differs: got %v, want %v", gotMap, wantMap)
	}
	if gotMin.String() != wantMin.String() {
		t.Fatalf("quotient differs:\n got:\n%s\nwant:\n%s", gotMin, wantMin)
	}
	// a and b are bisimilar and must merge.
	if gotMap["b"] != gotMap["a"] {
		t.Fatalf("states a and b should share a representative, got %v", gotMap)
	}
}
