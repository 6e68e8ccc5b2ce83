package modelstore_test

import (
	"bytes"
	"reflect"
	"testing"

	"privascope/internal/core"
	"privascope/internal/lts"
	"privascope/internal/modelstore"
)

// TestLabelsThatRenderAlikeStayApart: TransitionLabel.LabelString omits
// Service, FlowKey and Counterpart, so two labels that differ only there
// render alike. One edge of a class is given such a copy of its label. Built
// by lts.FromParts, through Encode and Decode, and by Relabeled, every edge
// keeps its own label value, the two labels land in distinct edge classes,
// and LabelHistogram prints them as one merged line, as before the change.
func TestLabelsThatRenderAlikeStayApart(t *testing.T) {
	m, p := fixtureModel(t)
	view := p.Compiled()
	a, b := int32(-1), int32(-1) // the first two edges of a class of two or more
	for c, class := range view.Classes() {
		if class.Count < 2 {
			continue
		}
		a = class.First
		for e := a + 1; b < 0; e++ {
			if view.Class(e) == int32(c) {
				b = e
			}
		}
		break
	}
	if b < 0 {
		t.Fatal("fixture has no class of two edges")
	}
	wantHist := p.Graph.LabelHistogram()
	of, sets := p.StoreTable()
	withGraph := func(g *lts.LTS, err error) *core.PrivacyLTS {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return core.RestorePrivacyLTS(m, p.Vocab, g, p.Warnings, p.VectorWords(), of, sets)
	}

	for _, row := range []struct {
		field  string
		mutate func(*core.TransitionLabel)
	}{
		{"Service", func(l *core.TransitionLabel) { l.Service += "'" }},
		{"FlowKey", func(l *core.TransitionLabel) { l.FlowKey += "'" }},
		{"Counterpart", func(l *core.TransitionLabel) { l.Counterpart += "'" }},
	} {
		t.Run(row.field, func(t *testing.T) {
			parts := p.Graph.Parts()
			labels := make([]lts.Label, len(parts.EdgeLabel))
			edges := make([]lts.BulkEdge, len(labels))
			for e := range labels {
				labels[e] = p.Graph.TransitionAt(int32(e)).Label
				edges[e] = lts.BulkEdge{From: parts.EdgeFrom[e], To: parts.EdgeTo[e], Label: labels[e]}
			}
			variant := *view.Label(b)
			row.mutate(&variant)
			if variant.LabelString() != view.Label(a).LabelString() {
				t.Fatalf("%s is part of the rendering", row.field)
			}
			labels[b], edges[b].Label = &variant, &variant

			built := withGraph(lts.FromParts(parts.NumStates, int(parts.Initial), edges))
			data, err := modelstore.Encode(built)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			decoded, err := modelstore.Decode(data, m)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if again, err := modelstore.Encode(decoded); err != nil || !bytes.Equal(again, data) {
				t.Fatalf("re-encoding the decoded model: %v, or the bytes differ", err)
			}
			for name, q := range map[string]*core.PrivacyLTS{
				"FromParts": built,
				"Decode":    decoded,
				"Relabeled": withGraph(p.Graph.Relabeled(labels)),
			} {
				for e, want := range labels {
					if got := q.Graph.TransitionAt(int32(e)).Label; !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: edge %d carries %+v, want %+v", name, e, got, want)
					}
				}
				v := q.Compiled()
				if v.Class(a) == v.Class(b) || len(v.Classes()) != len(view.Classes())+1 {
					t.Errorf("%s: edges %d and %d share class %d of %d, want distinct classes of %d",
						name, a, b, v.Class(a), len(v.Classes()), len(view.Classes())+1)
				}
				if hist := q.Graph.LabelHistogram(); !reflect.DeepEqual(hist, wantHist) {
					t.Errorf("%s: LabelHistogram = %v, want the unchanged %v", name, hist, wantHist)
				}
			}
		})
	}
}
