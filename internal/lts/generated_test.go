package lts_test

import (
	"context"
	"testing"

	"privascope/internal/core"
	"privascope/internal/lts"
	"privascope/internal/synth"
)

// TestGeneratedModelIsCanonical runs on the benchmark's "large" model
// (15,625 states): every generated state ID is canonical, so Index parses
// each back to its dense index, and every transition the graph assembles is
// the edge exploration stored — same endpoints, same label object — before
// and after Relabeled.
func TestGeneratedModelIsCanonical(t *testing.T) {
	gen := core.NewGenerator(core.Options{})
	p, trace, _, err := gen.GenerateTracedContext(context.Background(), synth.Model(synth.ModelSpec{Services: 5, FieldsPerService: 3}))
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	g := p.Graph
	n := int32(g.StateCount())
	for s := int32(0); s < n; s++ {
		if got, ok := g.Index(g.StateAt(s)); !ok || got != s {
			t.Fatalf("Index(StateAt(%d)) = (%d, %v)", s, got, ok)
		}
	}
	if len(trace.Edges) != g.TransitionCount() {
		t.Fatalf("trace has %d edges, graph %d transitions", len(trace.Edges), g.TransitionCount())
	}
	relabels := make([]lts.Label, len(trace.Edges))
	for e, edge := range trace.Edges {
		if l, ok := edge.Label.(*core.TransitionLabel); ok {
			copied := *l
			relabels[e] = &copied
		}
	}
	relabeled, err := g.Relabeled(relabels)
	if err != nil {
		t.Fatalf("Relabeled: %v", err)
	}
	for e, edge := range trace.Edges {
		want := lts.Transition{From: g.StateAt(edge.From), To: g.StateAt(edge.To), Label: edge.Label}
		if got := g.TransitionAt(int32(e)); got != want {
			t.Fatalf("transition %d = %v, exploration stored %v", e, got, want)
		}
		want.Label = relabels[e]
		if got := relabeled.TransitionAt(int32(e)); got != want {
			t.Fatalf("relabeled transition %d = %v, want %v", e, got, want)
		}
	}
}
