package core_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"privascope/internal/accesscontrol"
	"privascope/internal/core"
	"privascope/internal/proptest"
	"privascope/internal/proptest/scenario"
	"privascope/internal/testutil"
)

// TestPropWorkerCountDeterminism generalises the fixed-model determinism
// tests of parallel_test.go to the random corpus: for every drawn scenario,
// generation with 2 and 8 workers produces models byte-identical to the
// single-worker reference.
func TestPropWorkerCountDeterminism(t *testing.T) {
	proptest.Run(t, func(seed int64, rng *rand.Rand) error {
		s := scenario.Draw(seed)
		opts := s.Opts
		opts.Workers = 1
		ref, err := core.GenerateWithOptions(s.Model, opts)
		if err != nil {
			return err
		}
		want := ltsDigest(t, ref)
		for _, workers := range []int{2, 8} {
			opts.Workers = workers
			p, err := core.GenerateWithOptions(s.Model, opts)
			if err != nil {
				return err
			}
			if got := ltsDigest(t, p); got != want {
				t.Fatalf("seed %d: digest with %d workers differs from 1 worker:\n%s\nvs\n%s",
					seed, workers, got, want)
			}
		}
		return nil
	})
}

// TestPropGeneratedModelInvariants runs the structural invariant catalog of
// invariants_test.go over random scenarios: Has implies Could, Has is
// monotone along transitions, the initial state is the absolute privacy
// state with everything reachable from it, and every transition carries a
// complete label.
func TestPropGeneratedModelInvariants(t *testing.T) {
	proptest.Run(t, func(seed int64, rng *rand.Rand) error {
		s := scenario.Draw(seed)
		p, err := s.Generate()
		if err != nil {
			return err
		}

		vec, ok := p.Vector(p.InitialState())
		if !ok || !vec.IsZero() {
			t.Fatalf("seed %d: initial state is not the absolute privacy state", seed)
		}
		reach, err := p.Graph.Reachable()
		if err != nil {
			return err
		}
		if len(reach) != p.Graph.StateCount() {
			t.Fatalf("seed %d: %d of %d generated states reachable", seed, len(reach), p.Graph.StateCount())
		}

		for _, id := range p.States() {
			v, ok := p.Vector(id)
			if !ok {
				t.Fatalf("seed %d: state %s has no vector", seed, id)
			}
			for _, actor := range p.Vocab.Actors() {
				for _, field := range p.Vocab.Fields() {
					if v.Has(actor, field) && !v.Could(actor, field) {
						t.Fatalf("seed %d: state %s: has(%s,%s) without could", seed, id, actor, field)
					}
				}
			}
		}

		for _, tr := range p.Graph.Transitions() {
			label := core.LabelOf(tr)
			if label == nil {
				t.Fatalf("seed %d: transition %v has no TransitionLabel", seed, tr)
			}
			if !label.Action.Valid() || label.Actor == "" || len(label.Fields) == 0 {
				t.Fatalf("seed %d: transition %s has an incomplete label", seed, tr)
			}
			from, _ := p.Vector(tr.From)
			to, _ := p.Vector(tr.To)
			for _, actor := range p.Vocab.Actors() {
				for _, field := range p.Vocab.Fields() {
					if from.Has(actor, field) && !to.Has(actor, field) {
						t.Fatalf("seed %d: transition %s loses has(%s, %s)", seed, tr, actor, field)
					}
				}
			}
		}
		return nil
	})
}

// TestPropWarningsMonotoneUnderGrantRemoval is the "removing a permission
// never removes a violation" metamorphic property: dropping a grant from the
// policy can only keep or grow the set of policy-consistency warnings,
// because every warning reports a flow whose actor lacks a permission.
func TestPropWarningsMonotoneUnderGrantRemoval(t *testing.T) {
	proptest.Run(t, func(seed int64, rng *rand.Rand) error {
		m := scenario.RandomModel(rng, scenario.RandomModelSpec{Policy: scenario.PolicyACL})
		p, err := core.Generate(m)
		if err != nil {
			return err
		}
		before := make(map[string]bool, len(p.Warnings))
		for _, w := range p.Warnings {
			before[w] = true
		}

		grants := m.Policy.(*accesscontrol.ACL).Grants()
		if len(grants) == 0 {
			return nil
		}
		reduced := append([]accesscontrol.Grant(nil), grants...)
		drop := rng.Intn(len(reduced))
		reduced = append(reduced[:drop], reduced[drop+1:]...)

		restricted := *m
		restricted.Policy = accesscontrol.MustACL(reduced...)
		q, err := core.Generate(&restricted)
		if err != nil {
			return err
		}
		after := make(map[string]bool, len(q.Warnings))
		for _, w := range q.Warnings {
			after[w] = true
		}
		for w := range before {
			if !after[w] {
				t.Fatalf("seed %d: dropping grant %d removed warning %q", seed, drop, w)
			}
		}
		return nil
	})
}

// TestPropGenerationCancellationIsClean: cancelling generation of a random
// model mid-flight returns the context error (or a complete model, if
// generation won the race) and strands no goroutines.
func TestPropGenerationCancellationIsClean(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	proptest.Run(t, func(seed int64, rng *rand.Rand) error {
		s := scenario.Draw(seed)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := core.GenerateWithOptionsContext(ctx, s.Model, s.Opts)
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("seed %d: cancelled generation returned %v, want context.Canceled or nil", seed, err)
		}
		return nil
	})
}
