package scenario_test

import (
	"math/rand"
	"testing"

	"privascope/internal/core"
	"privascope/internal/dataflow"
	"privascope/internal/proptest"
	"privascope/internal/proptest/scenario"
)

// TestPropDrawIsPure: Draw is a pure function of the seed — the whole
// reproduction contract of the harness depends on it.
func TestPropDrawIsPure(t *testing.T) {
	proptest.Run(t, func(seed int64, rng *rand.Rand) error {
		a, b := scenario.Draw(seed), scenario.Draw(seed)
		fa, err := dataflow.Fingerprint(a.Model)
		if err != nil {
			t.Fatalf("fingerprint: %v", err)
		}
		fb, err := dataflow.Fingerprint(b.Model)
		if err != nil {
			t.Fatalf("fingerprint: %v", err)
		}
		if fa != fb {
			t.Fatalf("seed %d drew two different models: %s vs %s", seed, fa, fb)
		}
		if len(a.Profiles) != len(b.Profiles) {
			t.Fatalf("seed %d drew populations of %d and %d users", seed, len(a.Profiles), len(b.Profiles))
		}
		if a.Table.NumRows() != b.Table.NumRows() {
			t.Fatalf("seed %d drew tables of %d and %d rows", seed, a.Table.NumRows(), b.Table.NumRows())
		}
		if a.Opts != b.Opts {
			t.Fatalf("seed %d drew options %+v and %+v", seed, a.Opts, b.Opts)
		}
		return nil
	})
}

// TestPropScenarioGenerates: every drawn scenario's model generates a
// privacy LTS under the drawn options without error, at a tenth of the state
// cap or less.
func TestPropScenarioGenerates(t *testing.T) {
	proptest.Run(t, func(seed int64, rng *rand.Rand) error {
		s := scenario.Draw(seed)
		p, err := s.Generate()
		if err != nil {
			return err
		}
		if n := p.Graph.StateCount(); n == 0 || n > core.DefaultMaxStates/10 {
			t.Fatalf("seed %d: generated LTS has %d states", seed, n)
		}
		return nil
	})
}
