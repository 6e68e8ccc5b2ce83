package explore_test

import (
	"slices"
	"testing"

	"privascope/internal/accesscontrol"
	"privascope/internal/core"
	"privascope/internal/dataflow"
	"privascope/internal/synth"
)

// TestRegenerateTwiceFromOneTrace: a trace is a shared input. Its slabs grow
// geometrically while the driver runs, so a Result handed out must leave no
// spare capacity a later owner could append into, and regenerating from one
// trace any number of times — replaying it (policy edit) or re-labelling it
// wholesale through WithEdges (metadata edit) — leaves the trace and the LTS
// generated with it exactly as they were.
func TestRegenerateTwiceFromOneTrace(t *testing.T) {
	spec := synth.ModelSpec{Services: 3, FieldsPerService: 2, Seed: 1}
	gen := core.NewGenerator(core.Options{})
	prev, trace, _, err := gen.GenerateTracedContext(t.Context(), synth.Model(spec))
	if err != nil {
		t.Fatal(err)
	}
	if cap(trace.States) != len(trace.States) || cap(trace.Edges) != len(trace.Edges) {
		t.Errorf("the trace keeps spare capacity: states %d/%d, edges %d/%d",
			len(trace.States), cap(trace.States), len(trace.Edges), cap(trace.Edges))
	}
	mustDigest := func(p *core.PrivacyLTS) string {
		t.Helper()
		d, err := digest(p)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	prevDigest := mustDigest(prev)
	states, edges := slices.Clone(trace.States), slices.Clone(trace.Edges)

	policyEdit := synth.Model(spec)
	policyEdit.Policy = policyEdit.Policy.(*accesscontrol.ACL).Restrict("maintenance", "store0", []string{"field_0_0"})
	metaEdit := synth.Model(spec)
	metaEdit.Flows[0].Purpose = "relabelled"
	for name, after := range map[string]*dataflow.Model{"policy edit": policyEdit, "metadata edit": metaEdit} {
		cold, err := gen.Generate(after)
		if err != nil {
			t.Fatal(err)
		}
		want := mustDigest(cold)
		for round := 1; round <= 2; round++ {
			got, next, report, err := gen.RegenerateContext(t.Context(), prev, trace, after)
			if err != nil {
				t.Fatal(err)
			}
			if report.Fallback {
				t.Fatalf("%s, round %d: fell back: %s", name, round, report.FallbackReason)
			}
			if d := mustDigest(got); d != want {
				t.Errorf("%s, round %d: regenerated digest %s, cold %s", name, round, d, want)
			}
			// The regenerated trace is a trace in its own right: regenerating
			// the original model back from it must give the original LTS.
			back, _, _, err := gen.RegenerateContext(t.Context(), got, next, prev.Model)
			if err != nil {
				t.Fatal(err)
			}
			if d := mustDigest(back); d != prevDigest {
				t.Errorf("%s, round %d: regenerating back gives %s, the original is %s", name, round, d, prevDigest)
			}
		}
	}
	if !slices.Equal(trace.States, states) || !slices.Equal(trace.Edges, edges) {
		t.Error("regenerating from the trace changed it")
	}
	if idx := trace.EdgeIndex(); len(idx) != trace.NumStates+1 || int(idx[trace.NumStates]) != len(trace.Edges) {
		t.Errorf("EdgeIndex spans %d states and %d edges, want %d and %d", len(idx)-1, idx[len(idx)-1], trace.NumStates, len(trace.Edges))
	}
	if d := mustDigest(prev); d != prevDigest {
		t.Errorf("the original LTS changed: %s, was %s", d, prevDigest)
	}
}
