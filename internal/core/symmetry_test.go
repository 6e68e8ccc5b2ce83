package core_test

import (
	"context"
	"fmt"
	"testing"

	"privascope/internal/casestudy"
	"privascope/internal/core"
	"privascope/internal/explore"
	"privascope/internal/synth"
)

// TestSymmetryDigestIdentical: symmetry-reduced generation must reproduce the
// plain full generation byte for byte — same digest over the serialised model
// and the verbose DOT — for symmetric and asymmetric models alike, under both
// flow orderings and every potential-read mode, at several worker counts.
func TestSymmetryDigestIdentical(t *testing.T) {
	for _, name := range []string{"symmetric-4", "symmetric-3", "synthetic-2", "surgery"} {
		t.Run(name, func(t *testing.T) {
			for _, ordering := range []core.FlowOrdering{core.OrderSequential, core.OrderDataDriven} {
				for _, mode := range []core.PotentialReadMode{core.PotentialReadsOff, core.PotentialReadsTerminal, core.PotentialReadsFull} {
					base := core.Options{FlowOrdering: ordering, PotentialReads: mode, Workers: 1}
					plain, err := generateCase(name, base)
					if err != nil {
						t.Fatalf("plain generate: %v", err)
					}
					want := ltsDigest(t, plain)
					for _, workers := range []int{1, 4} {
						opts := base
						opts.Workers = workers
						opts.Explore.Symmetry = true
						sym, err := generateCase(name, opts)
						if err != nil {
							t.Fatalf("symmetry generate (workers=%d): %v", workers, err)
						}
						if got := ltsDigest(t, sym); got != want {
							t.Fatalf("ordering=%v mode=%v workers=%d: symmetry digest %s != plain %s",
								ordering, mode, workers, got, want)
						}
					}
				}
			}
		})
	}
}

func generateCase(name string, opts core.Options) (*core.PrivacyLTS, error) {
	switch name {
	case "symmetric-4":
		return core.GenerateWithOptionsContext(context.Background(), synth.SymmetricModel(synth.SymmetricSpec{Replicas: 4}), opts)
	case "symmetric-3":
		return core.GenerateWithOptionsContext(context.Background(), synth.SymmetricModel(synth.SymmetricSpec{Replicas: 3, Fields: 3}), opts)
	case "synthetic-2":
		return core.GenerateWithOptionsContext(context.Background(), synth.Model(synth.ModelSpec{}), opts)
	case "surgery":
		return core.GenerateWithOptionsContext(context.Background(), casestudy.Surgery(), opts)
	}
	return nil, fmt.Errorf("unknown case %q", name)
}

// TestSymmetryQuotientBound: with four interchangeable replicas, the quotient
// exploration must visit at most (full states / orbit size) + ε canonical
// states — the acceptance bound of symmetry reduction.
func TestSymmetryQuotientBound(t *testing.T) {
	m := synth.SymmetricModel(synth.SymmetricSpec{Replicas: 4})
	orbits := explore.DetectOrbits(m)
	if len(orbits) != 1 || len(orbits[0]) != 4 {
		t.Fatalf("DetectOrbits = %v, want one orbit of 4 replicas", orbits)
	}
	gen := core.NewGenerator(core.Options{Workers: 2, Explore: core.ExploreOptions{Symmetry: true}})
	_, _, report, err := gen.GenerateTracedContext(context.Background(), m)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	if report.Mode != "symmetry" {
		t.Fatalf("report.Mode = %q, want symmetry", report.Mode)
	}
	if report.Orbits != 1 || report.OrbitActors != 4 {
		t.Fatalf("report orbits = %d actors = %d, want 1 orbit of 4", report.Orbits, report.OrbitActors)
	}
	const epsilon = 8
	if bound := report.States/4 + epsilon; report.CanonicalStates > bound {
		t.Fatalf("CanonicalStates = %d, want <= States/4 + %d = %d (States = %d)",
			report.CanonicalStates, epsilon, bound, report.States)
	}
	t.Logf("full states = %d, canonical states = %d, cold-expanded = %d",
		report.States, report.CanonicalStates, report.ColdExpanded)
}

// TestSymmetryWithoutOrbitsFallsBack: a model with no interchangeable actors
// must run the plain full exploration (Mode "full"), not fail.
func TestSymmetryWithoutOrbitsFallsBack(t *testing.T) {
	m := synth.Model(synth.ModelSpec{})
	if orbits := explore.DetectOrbits(m); len(orbits) != 0 {
		t.Fatalf("DetectOrbits = %v, want none (services differ by field names)", orbits)
	}
	gen := core.NewGenerator(core.Options{Workers: 1, Explore: core.ExploreOptions{Symmetry: true}})
	_, _, report, err := gen.GenerateTracedContext(context.Background(), m)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	if report.Mode != "full" {
		t.Fatalf("report.Mode = %q, want full", report.Mode)
	}
}
