package risk_test

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"privascope/internal/core"
	"privascope/internal/proptest/scenario"
	"privascope/internal/risk"
	"privascope/internal/synth"
)

// TestAnalyzeMaterialisesFindingsOnce: an analysis allocates, in total, at
// most 1.05 times the bytes of the findings it returns — the one []Finding,
// written slot by slot in report order, plus the per-class templates, the
// memo of distinct texts and the per-call tables; nothing else per finding.
// Recording a 16-byte pending entry per finding and copying them into actor
// order reads 1.15 times; a comparison sort that grows its pending slice by
// append, 1.40; growing a []Finding by append and copying it into sorted
// order, about four times.
func TestAnalyzeMaterialisesFindingsOnce(t *testing.T) {
	m := synth.Model(synth.ModelSpec{Services: 5, FieldsPerService: 3, ExtraActors: 2})
	p, err := core.Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	profile := scenario.Population(m, scenario.PopulationOptions{Users: 1, Seed: 7, SensitiveFields: synth.SensitiveFieldsOf(m)})[0]
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
	if 20*allocated > 21*findingBytes {
		t.Errorf("analysis allocated %d bytes for %d bytes of findings, want at most 1.05 times", allocated, findingBytes)
	}
}
