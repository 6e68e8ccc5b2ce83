package privascope_test

import (
	"context"
	"encoding/json"
	"testing"

	"privascope"
	"privascope/internal/accesscontrol"
	"privascope/internal/casestudy"
	"privascope/internal/casestudy/casestudytest"
)

// TestEngineIncrementalRegeneration: an incremental engine fed a sequence of
// near-identical models must replay its previous exploration for the
// policy-only edit (IncrementalHits counts it) and still produce exactly the
// assessment and report a cold engine produces for the same model.
func TestEngineIncrementalRegeneration(t *testing.T) {
	ctx := context.Background()
	profile := casestudy.PatientProfile()

	before := casestudy.Surgery()
	after := casestudy.Surgery()
	after.Policy = after.Policy.(*accesscontrol.ACL).Restrict(
		casestudy.ActorResearcher, casestudy.StoreAnonEHR, nil)

	inc := privascope.MustEngine(privascope.EngineOptions{Incremental: true})
	if _, err := inc.Assess(ctx, before, profile); err != nil {
		t.Fatal(err)
	}
	if got := inc.IncrementalHits(); got != 0 {
		t.Fatalf("IncrementalHits after first (seedless) generation = %d, want 0", got)
	}
	got, err := inc.Assess(ctx, after, profile)
	if err != nil {
		t.Fatal(err)
	}
	if hits := inc.IncrementalHits(); hits != 1 {
		t.Fatalf("IncrementalHits after policy-delta generation = %d, want 1", hits)
	}
	if gens := inc.Generations(); gens != 2 {
		t.Fatalf("Generations = %d, want 2 (both models generated, one via replay)", gens)
	}

	cold := privascope.MustEngine(privascope.EngineOptions{})
	want, err := cold.Assess(ctx, after, profile)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := mustJSON(t, got.Assessment), mustJSON(t, want.Assessment); g != w {
		t.Fatalf("incremental assessment differs from cold assessment:\n%s\nvs\n%s", g, w)
	}
	if g, w := mustJSON(t, got.Report), mustJSON(t, want.Report); g != w {
		t.Fatalf("incremental report differs from cold report:\n%s\nvs\n%s", g, w)
	}
	if g, w := mustJSON(t, got.PrivacyModel), mustJSON(t, want.PrivacyModel); g != w {
		t.Fatalf("incremental privacy model JSON differs from cold generation")
	}
}

// TestEngineIncrementalStructuralChange: a structural edit (different case
// study) must not poison an incremental engine — it falls back to a cold
// generation without counting a hit.
func TestEngineIncrementalStructuralChange(t *testing.T) {
	ctx := context.Background()
	inc := privascope.MustEngine(privascope.EngineOptions{Incremental: true})
	if _, err := inc.Model(ctx, casestudy.Surgery()); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Model(ctx, casestudytest.Metrics()); err != nil {
		t.Fatal(err)
	}
	if got := inc.IncrementalHits(); got != 0 {
		t.Fatalf("IncrementalHits across structurally different models = %d, want 0", got)
	}

	cold := privascope.MustEngine(privascope.EngineOptions{})
	want, err := cold.Model(ctx, casestudytest.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	got, err := inc.Model(ctx, casestudytest.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	if g, w := mustJSON(t, got), mustJSON(t, want); g != w {
		t.Fatal("fallback generation differs from cold generation")
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}
