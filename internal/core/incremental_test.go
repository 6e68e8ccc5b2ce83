package core_test

import (
	"context"
	"testing"
	"time"

	"privascope/internal/accesscontrol"
	"privascope/internal/core"
	"privascope/internal/dataflow"
	"privascope/internal/synth"
	"privascope/internal/testutil"
)

// regenCase runs one cold traced generation of before, regenerates with the
// mutated after-model, and cross-checks the replay against a cold generation
// of the same after-model.
func regenCase(t *testing.T, opts core.Options, before, after *dataflow.Model) (*core.PrivacyLTS, *core.ExploreReport) {
	t.Helper()
	gen := core.NewGenerator(opts)
	ctx := context.Background()
	prev, trace, _, err := gen.GenerateTracedContext(ctx, before)
	if err != nil {
		t.Fatalf("cold generate (before): %v", err)
	}
	got, _, report, err := gen.RegenerateContext(ctx, prev, trace, after)
	if err != nil {
		t.Fatalf("regenerate: %v", err)
	}
	cold, err := core.GenerateWithOptions(after, opts)
	if err != nil {
		t.Fatalf("cold generate (after): %v", err)
	}
	if gd, cd := ltsDigest(t, got), ltsDigest(t, cold); gd != cd {
		t.Fatalf("regenerated digest %s != cold digest %s (mode=%q fallback=%v reason=%q)",
			gd, cd, report.Mode, report.Fallback, report.FallbackReason)
	}
	return got, report
}

// TestRegeneratePolicyDelta: revoking one reader's access is a pure policy
// delta — regeneration must replay the previous trace (no fallback, no cold
// expansions: the state space can only shrink) and still match a cold
// generation of the changed model byte for byte.
func TestRegeneratePolicyDelta(t *testing.T) {
	for _, mode := range []core.PotentialReadMode{core.PotentialReadsOff, core.PotentialReadsTerminal, core.PotentialReadsFull} {
		for _, workers := range []int{1, 4} {
			before := synth.SymmetricModel(synth.SymmetricSpec{Replicas: 3})
			after := synth.SymmetricModel(synth.SymmetricSpec{Replicas: 3})
			after.Policy = after.Policy.(*accesscontrol.ACL).WithoutActor("auditor", "shared")

			opts := core.Options{PotentialReads: mode, Workers: workers}
			_, report := regenCase(t, opts, before, after)
			if report.Mode != "replay" || report.Fallback {
				t.Fatalf("mode=%v workers=%d: report.Mode=%q Fallback=%v, want replay without fallback",
					mode, workers, report.Mode, report.Fallback)
			}
			if report.DeltaKind != "policy" {
				t.Fatalf("DeltaKind = %q, want policy", report.DeltaKind)
			}
			if report.AffectedReaders != 1 {
				t.Fatalf("AffectedReaders = %d, want 1 (auditor on shared)", report.AffectedReaders)
			}
			// A revocation cannot create states the previous run never saw, so
			// every expansion must be served from the trace. This is the
			// structural form of the "replay does a small fraction of the cold
			// work" acceptance criterion.
			if report.ColdExpanded != 0 {
				t.Fatalf("ColdExpanded = %d, want 0 for a pure revocation", report.ColdExpanded)
			}
		}
	}
}

// TestRegenerateGrantDelta: granting access can grow the state space under
// full potential reads; the new region is expanded cold, everything else is
// replayed, and the result still matches a cold generation.
func TestRegenerateGrantDelta(t *testing.T) {
	before := synth.SymmetricModel(synth.SymmetricSpec{Replicas: 3})
	before.Policy = before.Policy.(*accesscontrol.ACL).WithoutActor("auditor", "shared")
	after := synth.SymmetricModel(synth.SymmetricSpec{Replicas: 3})

	opts := core.Options{PotentialReads: core.PotentialReadsFull, Workers: 2}
	_, report := regenCase(t, opts, before, after)
	if report.Mode != "replay" || report.DeltaKind != "policy" {
		t.Fatalf("report mode=%q kind=%q, want replay/policy", report.Mode, report.DeltaKind)
	}
}

// TestRegenerateMetadataDelta: a purpose relabel never touches the state
// space; replay reuses every expansion while the labels come from the new
// compilation, so the output matches a cold generation of the relabelled
// model (not the old one).
func TestRegenerateMetadataDelta(t *testing.T) {
	before := synth.SymmetricModel(synth.SymmetricSpec{Replicas: 3})
	after := synth.SymmetricModel(synth.SymmetricSpec{Replicas: 3})
	after.Flows[0].Purpose = "relabelled-collect"

	opts := core.Options{PotentialReads: core.PotentialReadsTerminal, Workers: 1}
	lts, report := regenCase(t, opts, before, after)
	if report.Mode != "replay" || report.DeltaKind != "metadata" {
		t.Fatalf("report mode=%q kind=%q, want replay/metadata", report.Mode, report.DeltaKind)
	}
	if report.ColdExpanded != 0 {
		t.Fatalf("ColdExpanded = %d, want 0 for a metadata-only delta", report.ColdExpanded)
	}
	if report.StatesExplored != 0 {
		t.Fatalf("StatesExplored = %d, want 0 (a metadata delta reuses the trace without exploring)",
			report.StatesExplored)
	}
	found := false
	for _, tr := range lts.Graph.Transitions() {
		if l, ok := tr.Label.(*core.TransitionLabel); ok && l.Purpose == "relabelled-collect" {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("replayed LTS does not carry the relabelled purpose")
	}
}

// TestRegenerateUnsafeDeltaFallsBack: structural changes — here a new actor —
// cannot be proven replay-safe, so regeneration must fall back to a full cold
// run and say why.
func TestRegenerateUnsafeDeltaFallsBack(t *testing.T) {
	before := synth.SymmetricModel(synth.SymmetricSpec{Replicas: 3})
	after := synth.SymmetricModel(synth.SymmetricSpec{Replicas: 3})
	after.Actors = append(after.Actors, dataflow.Actor{ID: "zz-extra", Name: "Extra"})

	opts := core.Options{PotentialReads: core.PotentialReadsTerminal, Workers: 1}
	_, report := regenCase(t, opts, before, after)
	if report.Mode != "full" || !report.Fallback {
		t.Fatalf("report mode=%q fallback=%v, want full fallback", report.Mode, report.Fallback)
	}
	if report.DeltaKind != "unsafe" || report.FallbackReason == "" {
		t.Fatalf("report kind=%q reason=%q, want unsafe with a reason", report.DeltaKind, report.FallbackReason)
	}
}

// TestRegenerateWallClock: the acceptance bound of incremental regeneration —
// re-running after a metadata-only edit of a 15625-state model must cost a
// small fraction of the cold generation. The structural guarantee
// (StatesExplored == 0, nothing re-explored) is asserted exactly; the
// wall-clock ratio is asserted at 50% to stay robust under CI noise — the
// measured ratio is ~10% (benchmark/'s core.regenerate_metadata_ms).
func TestRegenerateWallClock(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a 15625-state model several times")
	}
	before := synth.Model(synth.ModelSpec{Services: 5, FieldsPerService: 3})
	after := synth.Model(synth.ModelSpec{Services: 5, FieldsPerService: 3})
	after.Flows[0].Purpose = "relabelled"

	gen := core.NewGenerator(core.Options{Workers: 1})
	ctx := context.Background()
	prev, trace, _, err := gen.GenerateTracedContext(ctx, before)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, _, _, err := gen.GenerateTracedContext(ctx, after); err != nil {
		t.Fatal(err)
	}
	cold := time.Since(start)

	start = time.Now()
	_, _, report, err := gen.RegenerateContext(ctx, prev, trace, after)
	if err != nil {
		t.Fatal(err)
	}
	replay := time.Since(start)
	if report.Fallback || report.StatesExplored != 0 {
		t.Fatalf("report fallback=%v explored=%d, want a no-exploration replay",
			report.Fallback, report.StatesExplored)
	}
	if ratio := float64(replay) / float64(cold); ratio > 0.5 {
		t.Fatalf("replay took %v = %.0f%% of the %v cold generation, want well under 50%%",
			replay, ratio*100, cold)
	}
	t.Logf("cold = %v, replay = %v (%.1f%%)", cold, replay, float64(replay)/float64(cold)*100)
}

// TestRegenerateWithoutSeed: nil previous generation regenerates cold.
func TestRegenerateWithoutSeed(t *testing.T) {
	m := synth.SymmetricModel(synth.SymmetricSpec{Replicas: 3})
	gen := core.NewGenerator(core.Options{})
	got, _, report, err := gen.RegenerateContext(context.Background(), nil, nil, m)
	if err != nil {
		t.Fatalf("regenerate: %v", err)
	}
	if report.Mode != "full" || !report.Fallback {
		t.Fatalf("report mode=%q fallback=%v, want full fallback", report.Mode, report.Fallback)
	}
	cold, err := core.GenerateWithOptions(m, core.Options{})
	if err != nil {
		t.Fatalf("cold generate: %v", err)
	}
	if gd, cd := ltsDigest(t, got), ltsDigest(t, cold); gd != cd {
		t.Fatalf("fallback digest %s != cold digest %s", gd, cd)
	}
}

// TestGraphsAreBornCompiled: every way a generator hands out a model — cold,
// each regeneration tier, the fallback — leaves the graph's compiled view in
// place, so the first Graph.Compiled() builds nothing.
func TestGraphsAreBornCompiled(t *testing.T) {
	ctx := context.Background()
	base := func() *dataflow.Model { return synth.SymmetricModel(synth.SymmetricSpec{Replicas: 3}) }
	relabelled := base()
	relabelled.Flows[0].Purpose = "relabelled-collect"
	revoked := base()
	revoked.Policy = revoked.Policy.(*accesscontrol.ACL).WithoutActor("auditor", "shared")

	for name, tc := range map[string]struct {
		opts    core.Options
		after   *dataflow.Model // nil: cold generation only
		noTrace bool            // regenerate without the previous trace
		mode    string
	}{
		"cold":                {mode: "full"},
		"cold with symmetry":  {opts: core.Options{Explore: core.ExploreOptions{Symmetry: true}}, mode: "symmetry"},
		"identical":           {after: base(), mode: "replay"},
		"metadata relabel":    {after: relabelled, mode: "replay"},
		"policy, reads off":   {opts: core.Options{PotentialReads: core.PotentialReadsOff}, after: revoked, mode: "replay"},
		"policy, driver":      {after: revoked, mode: "replay"},
		"fallback (no trace)": {after: revoked, noTrace: true, mode: "full"},
	} {
		gen := core.NewGenerator(tc.opts)
		fresh := func() *core.PrivacyLTS {
			p, trace, report, err := gen.GenerateTracedContext(ctx, base())
			if err == nil && tc.after != nil {
				if tc.noTrace {
					trace = nil
				}
				p, _, report, err = gen.RegenerateContext(ctx, p, trace, tc.after)
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if report.Mode != tc.mode {
				t.Fatalf("%s: took the %q path, want %q", name, report.Mode, tc.mode)
			}
			return p
		}
		if allocs := testutil.AllocsOnFresh(fresh, func(p *core.PrivacyLTS) { p.Graph.Compiled() }); allocs != 0 {
			t.Errorf("%s: first Graph.Compiled() allocated %v objects; the graph was not born compiled", name, allocs)
		}
	}
}
