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
func bulkParts(l *LTS) ([]StateID, int, []BulkEdge) {
	p := l.Parts()
	edges := make([]BulkEdge, len(p.EdgeLabels))
	for e, label := range p.EdgeLabels {
		edges[e] = BulkEdge{From: p.EdgeFrom[e], To: p.EdgeTo[e], Label: label}
	}
	return append([]StateID(nil), p.States...), int(p.Initial), edges
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
	ids := []StateID{"a", "b"}
	for name, build := range map[string]func() (*LTS, error){
		"duplicate id":     func() (*LTS, error) { return FromParts([]StateID{"a", "a"}, 0, nil) },
		"initial range":    func() (*LTS, error) { return FromParts(ids, 2, nil) },
		"endpoint range":   func() (*LTS, error) { return FromParts(ids, 0, []BulkEdge{{From: 0, To: 2}}) },
		"negative source":  func() (*LTS, error) { return FromParts(ids, -1, []BulkEdge{{From: -1, To: 0}}) },
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
		p.OutOff = append([]int32(nil), p.OutOff...)
		p.OutEdges = append([]int32(nil), p.OutEdges...)
		p.InOff = append([]int32(nil), p.InOff...)
		p.InEdges = append([]int32(nil), p.InEdges...)
		p.States = append([]StateID(nil), p.States...)
		return p
	}
	cases := map[string]func(*CompiledParts){
		"edge array length":    func(p *CompiledParts) { p.EdgeFrom = p.EdgeFrom[:1] },
		"label table length":   func(p *CompiledParts) { p.LabelStrs = p.LabelStrs[:1] },
		"offset array length":  func(p *CompiledParts) { p.OutOff = p.OutOff[:2] },
		"csr edges length":     func(p *CompiledParts) { p.OutEdges = p.OutEdges[:1] },
		"initial out of range": func(p *CompiledParts) { p.Initial = 99 },
		"duplicate state id":   func(p *CompiledParts) { p.States[1] = p.States[0] },
		"endpoint range":       func(p *CompiledParts) { p.EdgeTo[0] = -7 },
		"label range":          func(p *CompiledParts) { p.EdgeLabel[0] = 42 },
		"offsets do not span":  func(p *CompiledParts) { p.OutOff[len(p.OutOff)-1]++ },
		"offsets decrease":     func(p *CompiledParts) { p.OutOff[1] = p.OutOff[2] + 1 },
		"csr edge range":       func(p *CompiledParts) { p.OutEdges[0] = 77 },
		"csr wrong bucket": func(p *CompiledParts) {
			p.InEdges[0], p.InEdges[len(p.InEdges)-1] = p.InEdges[len(p.InEdges)-1], p.InEdges[0]
		},
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
	// A duplicated CSR entry within one bucket must be caught by the
	// ascending-order check.
	p := fresh()
	if len(p.OutEdges) >= 2 && p.OutOff[1] >= 2 {
		p.OutEdges[1] = p.OutEdges[0]
		if _, err := RestoreCompiled(p); err == nil {
			t.Errorf("duplicated CSR entry accepted")
		}
	}
}
