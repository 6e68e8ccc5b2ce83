package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"privascope/internal/casestudy"
	"privascope/internal/casestudy/casestudytest"
	"privascope/internal/core"
	"privascope/internal/synth"
)

// ltsDigest hashes the complete serialised model — state IDs, state
// variables, per-state store contents, transition order, labels — plus the
// verbose DOT rendering, so any divergence in generation order or content
// changes the digest.
func ltsDigest(t *testing.T, p *core.PrivacyLTS) string {
	t.Helper()
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	h := sha256.New()
	h.Write(data)
	h.Write([]byte(p.DOT(core.DOTOptions{VerboseStates: true})))
	return hex.EncodeToString(h.Sum(nil))
}

// TestParallelGenerationIdenticalDigests: for every case-study and synthetic
// model, under both flow orderings, generation with 1, 2, 4 and 8 workers
// produces the same digest — the paper's formal model must not depend on how
// many goroutines explored it.
func TestParallelGenerationIdenticalDigests(t *testing.T) {
	models := map[string]struct {
		generate func(opts core.Options) (*core.PrivacyLTS, error)
	}{
		"surgery": {func(opts core.Options) (*core.PrivacyLTS, error) {
			return core.GenerateWithOptionsContext(context.Background(), casestudy.Surgery(), opts)
		}},
		"metrics": {func(opts core.Options) (*core.PrivacyLTS, error) {
			return core.GenerateWithOptionsContext(context.Background(), casestudytest.Metrics(), opts)
		}},
		"synthetic-3": {func(opts core.Options) (*core.PrivacyLTS, error) {
			return core.GenerateWithOptionsContext(context.Background(), synth.Model(synth.ModelSpec{Services: 3, FieldsPerService: 3}), opts)
		}},
	}
	orderings := []core.FlowOrdering{core.OrderSequential, core.OrderDataDriven}
	modes := []core.PotentialReadMode{core.PotentialReadsTerminal, core.PotentialReadsFull}

	for name, tc := range models {
		for _, ordering := range orderings {
			for _, mode := range modes {
				t.Run(fmt.Sprintf("%s/ordering=%d/mode=%d", name, ordering, mode), func(t *testing.T) {
					opts := core.Options{FlowOrdering: ordering, PotentialReads: mode, Workers: 1}
					base, err := tc.generate(opts)
					if err != nil {
						t.Fatal(err)
					}
					want := ltsDigest(t, base)
					for _, workers := range []int{2, 4, 8} {
						opts.Workers = workers
						p, err := tc.generate(opts)
						if err != nil {
							t.Fatalf("workers=%d: %v", workers, err)
						}
						if got := ltsDigest(t, p); got != want {
							t.Errorf("workers=%d digest %s != workers=1 digest %s", workers, got, want)
						}
					}
				})
			}
		}
	}
}

// TestParallelGenerationSurgeryStats pins the well-known sizes of the
// doctors'-surgery model for a spread of worker counts: the paper's Fig. 3
// model must come out the same whether explored by one goroutine or many.
func TestParallelGenerationSurgeryStats(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		p, err := core.GenerateWithOptionsContext(context.Background(), casestudy.Surgery(), core.Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		stats := p.Stats()
		if stats.States != 47 || stats.Transitions != 49 || stats.PotentialTransitions != 34 {
			t.Errorf("workers=%d: states/transitions/potential = %d/%d/%d, want 47/49/34",
				workers, stats.States, stats.Transitions, stats.PotentialTransitions)
		}
		if p.InitialState() != "s0" {
			t.Errorf("workers=%d: initial state = %s, want s0", workers, p.InitialState())
		}
	}
}
