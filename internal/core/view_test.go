package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"privascope/internal/casestudy"
	"privascope/internal/core"
	"privascope/internal/proptest"
	"privascope/internal/proptest/scenario"
	"privascope/internal/synth"
)

// TestInvariantCompiledViewClasses checks the edge classes of the case
// studies and the synthetic models, the model store's fuzz model among them,
// against their state vectors (checkCompiledView), and pins how far the
// surgery model's edges collapse.
func TestInvariantCompiledViewClasses(t *testing.T) {
	models := generatedModels(t)
	var err error
	if models["default"], err = core.Generate(synth.Model(synth.ModelSpec{})); err != nil {
		t.Fatal(err)
	}
	for name, p := range models {
		if err := checkCompiledView(p); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	p, err := core.Generate(casestudy.Surgery())
	if err != nil {
		t.Fatal(err)
	}
	if edges, classes := p.Graph.TransitionCount(), len(p.Compiled().Classes()); edges != 49 || classes != 16 {
		t.Errorf("surgery: %d edges in %d classes, want 49 in 16", edges, classes)
	}
}

// TestPropCompiledViewClasses runs the view's invariants over random
// scenarios under both flow orderings and all three potential-read modes.
func TestPropCompiledViewClasses(t *testing.T) {
	proptest.Run(t, func(seed int64, rng *rand.Rand) error {
		s := scenario.Draw(seed)
		for _, ordering := range []core.FlowOrdering{core.OrderSequential, core.OrderDataDriven} {
			for _, reads := range []core.PotentialReadMode{core.PotentialReadsOff, core.PotentialReadsTerminal, core.PotentialReadsFull} {
				opts := s.Opts
				opts.FlowOrdering, opts.PotentialReads = ordering, reads
				p, err := core.GenerateWithOptionsContext(context.Background(), s.Model, opts)
				if err != nil {
					return err
				}
				if err := checkCompiledView(p); err != nil {
					t.Fatalf("seed %d, ordering %v, potential reads %v: %v", seed, ordering, reads, err)
				}
			}
		}
		return nil
	})
}

// checkCompiledView returns the first violated invariant of the model's
// compiled view: every labelled edge belongs to a class that carries its
// label (by identity) and whose changes are exactly the variables the edge's
// target vector sets and its source vector does not, in vocabulary order;
// every other edge belongs to none; a class counts its edges and names the
// lowest as First; and no two classes share a label and a change list.
func checkCompiledView(p *core.PrivacyLTS) error {
	view := p.Compiled()
	classes := view.Classes()
	counts := make([]int32, len(classes))
	for e := range int32(p.Graph.TransitionCount()) {
		tr := p.Graph.TransitionAt(e)
		label, c := core.LabelOf(tr), view.Class(e)
		if view.Label(e) != label {
			return fmt.Errorf("edge %d: view label %v, want %v", e, view.Label(e), label)
		}
		if label == nil {
			if c != -1 {
				return fmt.Errorf("edge %d carries no TransitionLabel but is in class %d", e, c)
			}
			continue
		}
		if c < 0 || int(c) >= len(classes) {
			return fmt.Errorf("edge %d: class %d out of range [0, %d)", e, c, len(classes))
		}
		class := &classes[c]
		if class.Label != label {
			return fmt.Errorf("edge %d: class %d has label %v, want %v", e, c, class.Label, label)
		}
		if counts[c] == 0 && class.First != e {
			return fmt.Errorf("class %d: First = %d, want its lowest edge %d", c, class.First, e)
		}
		counts[c]++
		to, _ := p.Vector(tr.To)
		from, _ := p.Vector(tr.From)
		if got, want := changeVariables(view, class.Changes), to.NewlyTrue(from); !slices.Equal(got, want) {
			return fmt.Errorf("edge %d (class %d): changes %v, want the newly true %v", e, c, got, want)
		}
	}
	type key struct {
		label   *core.TransitionLabel
		changes string
	}
	seen := make(map[key]int, len(classes))
	for c := range classes {
		if counts[c] != classes[c].Count || counts[c] == 0 {
			return fmt.Errorf("class %d: Count = %d, but %d edges are in it", c, classes[c].Count, counts[c])
		}
		k := key{classes[c].Label, fmt.Sprint(changeVariables(view, classes[c].Changes))}
		if prev, ok := seen[k]; ok {
			return fmt.Errorf("classes %d and %d share label %v and changes %s", prev, c, k.label, k.changes)
		}
		seen[k] = c
	}
	return nil
}

// changeVariables names a class's changes.
func changeVariables(view *core.CompiledView, changes []core.EdgeChange) []core.Variable {
	var out []core.Variable
	for _, ch := range changes {
		out = append(out, core.Variable{Actor: view.Actors()[ch.Actor], Field: view.Fields()[ch.Field], Kind: ch.Kind})
	}
	return out
}
