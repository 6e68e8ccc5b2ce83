package core_test

import (
	"context"
	"testing"

	"privascope/internal/casestudy"
	"privascope/internal/casestudy/casestudytest"
	"privascope/internal/core"
	"privascope/internal/synth"
)

// generatedModels returns a spread of generated privacy LTSs: the two case
// studies and several synthetic models of increasing size, under both flow
// orderings.
func generatedModels(t *testing.T) map[string]*core.PrivacyLTS {
	t.Helper()
	out := make(map[string]*core.PrivacyLTS)
	add := func(name string, p *core.PrivacyLTS, err error) {
		if err != nil {
			t.Fatalf("generate %s: %v", name, err)
		}
		out[name] = p
	}

	surgery := casestudy.Surgery()
	p, err := core.Generate(surgery)
	add("surgery/sequential", p, err)
	p, err = core.GenerateWithOptionsContext(context.Background(), surgery, core.Options{FlowOrdering: core.OrderDataDriven})
	add("surgery/data-driven", p, err)
	p, err = core.GenerateWithOptionsContext(context.Background(), casestudytest.Metrics(), core.Options{
		FlowOrdering: core.OrderDataDriven, PotentialReads: core.PotentialReadsFull,
	})
	add("metrics/full-potential", p, err)

	for _, services := range []int{1, 2, 3} {
		model := synth.Model(synth.ModelSpec{Services: services, FieldsPerService: 2, ExtraActors: 1})
		p, err := core.Generate(model)
		add(model.Name, p, err)
	}
	return out
}

// TestInvariantHasImpliesCould: an actor who has identified a field can, by
// definition, identify it — every Has variable must be accompanied by the
// corresponding Could variable in every reachable state.
func TestInvariantHasImpliesCould(t *testing.T) {
	for name, p := range generatedModels(t) {
		for _, id := range p.States() {
			vec, ok := p.Vector(id)
			if !ok {
				t.Fatalf("%s: state %s has no vector", name, id)
			}
			for _, actor := range p.Vocab.Actors() {
				for _, field := range p.Vocab.Fields() {
					if vec.Has(actor, field) && !vec.Could(actor, field) {
						t.Errorf("%s: state %s: has(%s,%s) without could(%s,%s)",
							name, id, actor, field, actor, field)
					}
				}
			}
		}
	}
}

// TestInvariantHasMonotoneAlongTransitions: knowledge cannot be un-learned —
// along every transition, the set of Has variables of the target state is a
// superset of the source state's (deleting data only affects what actors
// could still obtain, not what they already identified).
func TestInvariantHasMonotoneAlongTransitions(t *testing.T) {
	for name, p := range generatedModels(t) {
		for _, tr := range p.Graph.Transitions() {
			from, _ := p.Vector(tr.From)
			to, _ := p.Vector(tr.To)
			for _, actor := range p.Vocab.Actors() {
				for _, field := range p.Vocab.Fields() {
					if from.Has(actor, field) && !to.Has(actor, field) {
						t.Errorf("%s: transition %s loses has(%s, %s)", name, tr, actor, field)
					}
				}
			}
		}
	}
}

// TestInvariantInitialStateIsAbsolute: the initial state is the absolute
// privacy state (no variable true) and every state is reachable from it.
func TestInvariantInitialStateIsAbsolute(t *testing.T) {
	for name, p := range generatedModels(t) {
		vec, ok := p.Vector(p.InitialState())
		if !ok || !vec.IsZero() {
			t.Errorf("%s: initial state is not the absolute privacy state", name)
		}
		reach, err := p.Graph.Reachable()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(reach) != p.Graph.StateCount() {
			t.Errorf("%s: %d of %d generated states reachable", name, len(reach), p.Graph.StateCount())
		}
	}
}

// TestInvariantPotentialReadsOnlyAddHasForTheirActor: a potential read by an
// actor changes only that actor's variables, and only Has/Could of the fields
// it reads.
func TestInvariantPotentialReadsOnlyAddHasForTheirActor(t *testing.T) {
	for name, p := range generatedModels(t) {
		for _, tr := range p.PotentialTransitions() {
			label := core.LabelOf(tr)
			readFields := make(map[string]bool, len(label.Fields))
			for _, f := range label.Fields {
				readFields[f] = true
			}
			for _, v := range p.ChangeOf(tr) {
				if v.Actor != label.Actor {
					t.Errorf("%s: potential read %s changed variable %s of another actor", name, tr, v)
				}
				if !readFields[v.Field] {
					t.Errorf("%s: potential read %s changed variable %s outside its field set", name, tr, v)
				}
			}
		}
	}
}

// TestInvariantLabelsAreComplete: every transition carries a TransitionLabel
// with a valid action, a non-empty actor and at least one field.
func TestInvariantLabelsAreComplete(t *testing.T) {
	for name, p := range generatedModels(t) {
		for _, tr := range p.Graph.Transitions() {
			label := core.LabelOf(tr)
			if label == nil {
				t.Fatalf("%s: transition %v has no TransitionLabel", name, tr)
			}
			if !label.Action.Valid() {
				t.Errorf("%s: transition %s has invalid action", name, tr)
			}
			if label.Actor == "" {
				t.Errorf("%s: transition %s has no actor", name, tr)
			}
			if len(label.Fields) == 0 {
				t.Errorf("%s: transition %s has no fields", name, tr)
			}
		}
	}
}

// TestInvariantDeterministicGeneration: generating the same model twice
// yields byte-identical structure (state IDs, transition order, labels).
func TestInvariantDeterministicGeneration(t *testing.T) {
	model := casestudy.Surgery()
	first, err := core.Generate(model)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := core.Generate(model)
		if err != nil {
			t.Fatal(err)
		}
		if first.Graph.StateCount() != again.Graph.StateCount() ||
			first.Graph.TransitionCount() != again.Graph.TransitionCount() {
			t.Fatalf("generation is not deterministic in size")
		}
		a := first.Graph.Transitions()
		b := again.Graph.Transitions()
		for j := range a {
			if a[j].From != b[j].From || a[j].To != b[j].To ||
				a[j].Label.LabelString() != b[j].Label.LabelString() {
				t.Fatalf("generation is not deterministic at transition %d: %v vs %v", j, a[j], b[j])
			}
		}
		if first.DOT(core.DOTOptions{}) != again.DOT(core.DOTOptions{}) {
			t.Fatal("DOT rendering is not deterministic")
		}
	}
}

// TestInvariantSequentialIsSubsetOfDataDriven: every state vector reachable
// under sequential ordering is also reachable under data-driven ordering
// (data-driven only relaxes the gating).
func TestInvariantSequentialIsSubsetOfDataDriven(t *testing.T) {
	model := casestudy.Surgery()
	seq, err := core.GenerateWithOptionsContext(context.Background(), model, core.Options{PotentialReads: core.PotentialReadsOff})
	if err != nil {
		t.Fatal(err)
	}
	dd, err := core.GenerateWithOptionsContext(context.Background(), model, core.Options{
		FlowOrdering: core.OrderDataDriven, PotentialReads: core.PotentialReadsOff,
	})
	if err != nil {
		t.Fatal(err)
	}
	ddVectors := make(map[string]bool)
	for _, id := range dd.States() {
		vec, _ := dd.Vector(id)
		ddVectors[vec.Key()] = true
	}
	for _, id := range seq.States() {
		vec, _ := seq.Vector(id)
		if !ddVectors[vec.Key()] {
			t.Errorf("sequential state %s (vector %s) unreachable under data-driven ordering", id, vec)
		}
	}
}
