package report_test

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"privascope/internal/core"
	"privascope/internal/proptest/scenario"
	"privascope/internal/report"
	"privascope/internal/risk"
	"privascope/internal/synth"
)

var update = flag.Bool("update", false, "rewrite golden files with the current output")

// golden compares got against testdata/<name>, rewriting the file under
// -update. Report rendering feeds documentation and CLI output, so its exact
// text is pinned byte-for-byte; a deliberate format change re-records with:
//
//	go test ./internal/report -run Golden -update
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatalf("rewriting %s: %v", path, err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (re-record with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("%s drifted from its golden file (re-record with -update if intended)\n--- got ---\n%s\n--- want ---\n%s",
			name, got, want)
	}
}

// goldenModel is the fixed synthetic system every golden rendering uses:
// small enough to read in a diff, big enough to exercise multi-service
// output, extra actors and the maintenance potential reads.
func goldenModel(t *testing.T) (*core.PrivacyLTS, []risk.UserProfile) {
	t.Helper()
	m := synth.Model(synth.ModelSpec{Services: 2, FieldsPerService: 2, ExtraActors: 1})
	p, err := core.Generate(m)
	if err != nil {
		t.Fatalf("generating model: %v", err)
	}
	profiles := scenario.Population(m, scenario.PopulationOptions{
		Users: 3, Seed: 7, SensitiveFields: synth.SensitiveFieldsOf(m),
	})
	return p, profiles
}

func TestGoldenModelSummary(t *testing.T) {
	p, _ := goldenModel(t)
	r := report.ModelSummary(p)
	golden(t, "model_summary.golden", r.Render())
	golden(t, "model_summary.md.golden", r.RenderMarkdown())
}

func TestGoldenDisclosureAssessment(t *testing.T) {
	p, profiles := goldenModel(t)
	a, err := defaultAnalyzer(t).AnalyzeContext(context.Background(), p, profiles[0])
	if err != nil {
		t.Fatalf("analyzing: %v", err)
	}
	r := report.DisclosureAssessment(a)
	golden(t, "disclosure_assessment.golden", r.Render())
	golden(t, "disclosure_assessment.md.golden", r.RenderMarkdown())
}

func TestGoldenPopulationSummary(t *testing.T) {
	p, profiles := goldenModel(t)
	pa, err := defaultAnalyzer(t).AnalyzePopulationContext(context.Background(), p, profiles)
	if err != nil {
		t.Fatalf("analyzing population: %v", err)
	}
	golden(t, "population_summary.golden", report.PopulationSummary(pa).Render())
}
