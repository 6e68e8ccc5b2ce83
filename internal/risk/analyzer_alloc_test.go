package risk_test

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"privascope/internal/core"
	"privascope/internal/risk"
	"privascope/internal/synth"
)

// TestAnalyzeMaterialisesFindingsOnce: an analysis allocates, in total, less
// than twice the bytes of the findings it returns — the one []Finding plus
// the compact pending entries, the memo of distinct texts and the per-call
// tables. Growing a []Finding by append and copying it into sorted order
// costs about four times the slice instead.
func TestAnalyzeMaterialisesFindingsOnce(t *testing.T) {
	m := synth.Model(synth.ModelSpec{Services: 5, FieldsPerService: 3, ExtraActors: 2})
	p, err := core.Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	profile := synth.Population(m, synth.PopulationOptions{Users: 1, Seed: 7, SensitiveFields: synth.SensitiveFieldsOf(m)})[0]
	analyzer := risk.MustAnalyzer(risk.Config{})
	ctx := context.Background()
	// The first call compiles the model's shared view, which later calls find
	// cached.
	warm, err := analyzer.AnalyzeContext(ctx, p, profile)
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.Findings) < 18000 {
		t.Fatalf("model yields %d findings, want at least 18000", len(warm.Findings))
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a, err := analyzer.AnalyzeContext(ctx, p, profile)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	findingBytes := uint64(len(a.Findings)) * uint64(reflect.TypeOf(risk.Finding{}).Size())
	allocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d findings of %d bytes: %d bytes allocated, %.2f times the findings",
		len(a.Findings), reflect.TypeOf(risk.Finding{}).Size(), allocated, float64(allocated)/float64(findingBytes))
	if allocated > 2*findingBytes {
		t.Errorf("analysis allocated %d bytes for %d bytes of findings, want at most twice", allocated, findingBytes)
	}
}
