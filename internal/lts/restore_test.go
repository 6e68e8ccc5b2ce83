package lts

import (
	"reflect"
	"strings"
	"testing"
)

// buildRestoreFixture returns a small LTS with shared labels, a diamond shape
// and a parallel edge, exercising every CSR corner.
func buildRestoreFixture() *LTS {
	shared := StringLabel("shared")
	return newGraph().init("s0").
		edge("s0", "s1", shared).
		edge("s0", "s2", StringLabel("b")).
		edge("s1", "s3", shared).
		edge("s2", "s3", StringLabel("c")).
		edge("s3", "s0", nil).
		edge("s0", "s1", StringLabel("parallel")).build()
}

// bulkParts returns the inputs of FromParts that reproduce the LTS.
func bulkParts(l *LTS) (int, int, []BulkEdge) {
	p := l.Parts()
	edges := make([]BulkEdge, len(p.EdgeLabel))
	for e := range edges {
		edges[e] = BulkEdge{From: p.EdgeFrom[e], To: p.EdgeTo[e], Label: l.TransitionAt(int32(e)).Label}
	}
	return p.NumStates, int(p.Initial), edges
}

// TestRestoreCompiledRoundTrip: every bulk constructor — RestoreCompiled over
// exported parts, FromParts over the dense lists, Relabeled with the same
// labels — yields an LTS indistinguishable from the original.
func TestRestoreCompiledRoundTrip(t *testing.T) {
	orig := buildRestoreFixture()
	builders := map[string]func() (*LTS, error){
		"RestoreCompiled": func() (*LTS, error) { return RestoreCompiled(orig.Parts()) },
		"FromParts":       func() (*LTS, error) { return FromParts(bulkParts(orig)) },
		"Relabeled": func() (*LTS, error) {
			labels := make([]Label, orig.TransitionCount())
			for i, tr := range orig.Transitions() {
				labels[i] = tr.Label
			}
			return orig.Relabeled(labels)
		},
	}
	for name, build := range builders {
		l, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(l.Parts(), orig.Parts()) {
			t.Fatalf("%s: parts differ from the original's", name)
		}
		if !reflect.DeepEqual([4][]int32{l.outOff, l.outEdges, l.inOff, l.inEdges},
			[4][]int32{orig.outOff, orig.outEdges, orig.inOff, orig.inEdges}) {
			t.Fatalf("%s: CSR layouts differ from the original's", name)
		}
		if got, want := l.String(), orig.String(); got != want {
			t.Fatalf("%s: LTS renders differently:\n%s\nvs\n%s", name, got, want)
		}
		if !reflect.DeepEqual(l.Transitions(), orig.Transitions()) {
			t.Fatalf("%s: transitions differ", name)
		}
		if !reflect.DeepEqual(l.StateIDs(), orig.StateIDs()) {
			t.Fatalf("%s: state order differs", name)
		}
		gotStats, err := l.Stats()
		if err != nil {
			t.Fatalf("%s: Stats: %v", name, err)
		}
		wantStats, _ := orig.Stats()
		if gotStats != wantStats {
			t.Fatalf("%s: stats %+v, want %+v", name, gotStats, wantStats)
		}
		for _, id := range orig.StateIDs() {
			if _, ok := l.Index(id); !ok {
				t.Fatalf("%s: state %s missing", name, id)
			}
			if !reflect.DeepEqual(l.Outgoing(id), orig.Outgoing(id)) {
				t.Fatalf("%s: outgoing of %s differs", name, id)
			}
			if !reflect.DeepEqual(l.Incoming(id), orig.Incoming(id)) {
				t.Fatalf("%s: incoming of %s differs", name, id)
			}
		}
	}
}

// TestFromPartsRejectsBadInput: malformed dense input is an error, never a
// panic.
func TestFromPartsRejectsBadInput(t *testing.T) {
	for name, build := range map[string]func() (*LTS, error){
		"negative count":   func() (*LTS, error) { return FromParts(-1, -1, nil) },
		"initial range":    func() (*LTS, error) { return FromParts(2, 2, nil) },
		"endpoint range":   func() (*LTS, error) { return FromParts(2, 0, []BulkEdge{{From: 0, To: 2}}) },
		"negative source":  func() (*LTS, error) { return FromParts(2, -1, []BulkEdge{{From: -1, To: 0}}) },
		"relabel mismatch": func() (*LTS, error) { return buildRestoreFixture().Relabeled(nil) },
	} {
		if _, err := build(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestRestoreCompiledRejectsCorruptParts mutates each invariant in turn and
// requires a clean error, never a panic.
func TestRestoreCompiledRejectsCorruptParts(t *testing.T) {
	fresh := func() CompiledParts {
		// Re-derive parts from a fresh fixture each time, deep-copying the
		// slices a case mutates.
		p := buildRestoreFixture().Parts()
		p.EdgeFrom = append([]int32(nil), p.EdgeFrom...)
		p.EdgeTo = append([]int32(nil), p.EdgeTo...)
		p.EdgeLabel = append([]int32(nil), p.EdgeLabel...)
		return p
	}
	cases := map[string]func(*CompiledParts){
		"edge array length":    func(p *CompiledParts) { p.EdgeFrom = p.EdgeFrom[:1] },
		"label table length":   func(p *CompiledParts) { p.LabelStrs = p.LabelStrs[:1] },
		"initial out of range": func(p *CompiledParts) { p.Initial = 99 },
		"negative state count": func(p *CompiledParts) { p.NumStates = -1 },
		"endpoint range":       func(p *CompiledParts) { p.EdgeTo[0] = -7 },
		"source past the end":  func(p *CompiledParts) { p.EdgeFrom[0] = int32(p.NumStates) },
		"label range":          func(p *CompiledParts) { p.EdgeLabel[0] = 42 },
	}
	for name, corrupt := range cases {
		p := fresh()
		corrupt(&p)
		if _, err := RestoreCompiled(p); err == nil {
			t.Errorf("%s: corruption accepted", name)
		} else if !strings.Contains(err.Error(), "lts: restore") {
			t.Errorf("%s: unexpected error %v", name, err)
		}
	}
}
