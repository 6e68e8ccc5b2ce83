package report_test

import (
	"context"
	"strings"
	"testing"

	"privascope/internal/casestudy"
	"privascope/internal/core"
	"privascope/internal/policy"
	"privascope/internal/pseudorisk"
	"privascope/internal/report"
	"privascope/internal/risk"
)

func TestTableRender(t *testing.T) {
	tbl := report.NewTable("name", "value")
	tbl.AddRow("states", "12")
	tbl.AddRow("transitions", "18", "ignored extra cell")
	tbl.AddRow("short")
	out := tbl.Render()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("expected 5 lines, got %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") {
		t.Errorf("header missing: %q", lines[0])
	}
	if !strings.Contains(lines[1], "----") {
		t.Errorf("separator missing: %q", lines[1])
	}
	if !strings.Contains(out, "transitions  18") {
		t.Errorf("alignment broken:\n%s", out)
	}
	if tbl.NumRows() != 3 {
		t.Errorf("NumRows = %d", tbl.NumRows())
	}
}

func TestTableRenderMarkdown(t *testing.T) {
	tbl := report.NewTable("a", "b")
	tbl.AddRow("x|y", "2")
	out := tbl.RenderMarkdown()
	if !strings.Contains(out, "| a | b |") {
		t.Errorf("markdown header missing:\n%s", out)
	}
	if !strings.Contains(out, "| --- | --- |") {
		t.Errorf("markdown separator missing:\n%s", out)
	}
	if !strings.Contains(out, `x\|y`) {
		t.Errorf("pipe not escaped:\n%s", out)
	}
}

func TestReportRender(t *testing.T) {
	r := report.NewReport("Demo")
	r.AddSection("Intro", "Some text.")
	tbl := report.NewTable("k", "v")
	tbl.AddRow("x", "1")
	r.AddTable("Numbers", "Counted things.", tbl)

	text := r.Render()
	for _, want := range []string{"Demo\n====", "Intro\n-----", "Some text.", "Numbers", "Counted things.", "x  1"} {
		if !strings.Contains(text, want) {
			t.Errorf("Render() missing %q:\n%s", want, text)
		}
	}
	md := r.RenderMarkdown()
	for _, want := range []string{"# Demo", "## Intro", "## Numbers", "| k | v |"} {
		if !strings.Contains(md, want) {
			t.Errorf("RenderMarkdown() missing %q:\n%s", want, md)
		}
	}
	if len(r.Sections()) != 2 {
		t.Errorf("Sections() = %d", len(r.Sections()))
	}
}

func TestModelSummary(t *testing.T) {
	p, err := core.Generate(casestudy.Surgery())
	if err != nil {
		t.Fatal(err)
	}
	out := report.ModelSummary(p).Render()
	for _, want := range []string{"doctors-surgery", "states", "transitions", "potential-read transitions"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q", want)
		}
	}
}

func TestDisclosureAssessmentReport(t *testing.T) {
	p, err := core.Generate(casestudy.Surgery())
	if err != nil {
		t.Fatal(err)
	}
	assessment, err := risk.MustAnalyzer(risk.Config{}).Analyze(p, casestudy.PatientProfile())
	if err != nil {
		t.Fatal(err)
	}
	out := report.DisclosureAssessment(assessment).Render()
	for _, want := range []string{"patient-1", "Non-allowed actors", casestudy.ActorAdministrator, "medium", "Suggested mitigations"} {
		if !strings.Contains(out, want) {
			t.Errorf("assessment report missing %q", want)
		}
	}
}

func TestPopulationSummaryReport(t *testing.T) {
	p, err := core.Generate(casestudy.Surgery())
	if err != nil {
		t.Fatal(err)
	}
	analyzer := risk.MustAnalyzer(risk.Config{})
	wary := casestudy.PatientProfile()
	relaxed := risk.UserProfile{ID: "relaxed", ConsentedServices: []string{casestudy.ServiceMedical, casestudy.ServiceResearch}}
	population, err := analyzer.AnalyzePopulation(p, []risk.UserProfile{wary, relaxed})
	if err != nil {
		t.Fatal(err)
	}
	out := report.PopulationSummary(population).Render()
	for _, want := range []string{"Risk distribution", "Per-user results", "patient-1", "relaxed", "medium"} {
		if !strings.Contains(out, want) {
			t.Errorf("population report missing %q", want)
		}
	}
	if !strings.Contains(out, "Actors to mitigate first") {
		t.Error("population report missing mitigation ranking")
	}
}

func TestRiskComparisonTable(t *testing.T) {
	changes := []risk.Change{
		{Actor: "administrator", Datastore: "ehr", Field: "diagnosis", Before: risk.LevelMedium, After: risk.LevelNone},
	}
	out := report.RiskComparison(changes).Render()
	if !strings.Contains(out, "administrator") || !strings.Contains(out, "medium") || !strings.Contains(out, "none") {
		t.Errorf("comparison table malformed:\n%s", out)
	}
}

func TestTableIReport(t *testing.T) {
	evaluator, err := pseudorisk.NewEvaluator(casestudy.TableIRecords(), casestudy.ResearchPolicy())
	if err != nil {
		t.Fatal(err)
	}
	results, err := evaluator.EvaluateProgression(context.Background(), [][]string{{"height"}, {"age"}, {"age", "height"}})
	if err != nil {
		t.Fatal(err)
	}
	out := report.TableI(evaluator, results).Render()
	for _, want := range []string{"height risk", "age risk", "age+height risk", "2/4", "3/4", "2/2", "Violations:"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I report missing %q:\n%s", want, out)
		}
	}
	// The violations row ends with 0, 2, 4.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	last := lines[len(lines)-1]
	fields := strings.Fields(last)
	if len(fields) < 4 || fields[len(fields)-3] != "0" || fields[len(fields)-2] != "2" || fields[len(fields)-1] != "4" {
		t.Errorf("violations row = %q, want trailing 0 2 4", last)
	}
}

func TestPseudonymisationAnnotationReport(t *testing.T) {
	p, err := core.GenerateWithOptions(casestudy.Metrics(), core.Options{
		FlowOrdering: core.OrderDataDriven, PotentialReads: core.PotentialReadsOff,
	})
	if err != nil {
		t.Fatal(err)
	}
	annotation, err := pseudorisk.AnalyzeLTS(context.Background(), p, pseudorisk.Options{
		Actor:  casestudy.ActorResearcher,
		Policy: casestudy.ResearchPolicy(),
		Table:  casestudy.TableIRecords(),
	})
	if err != nil {
		t.Fatal(err)
	}
	out := report.PseudonymisationAnnotation(annotation).Render()
	for _, want := range []string{casestudy.ActorResearcher, "Risk transitions", "violations", "weight"} {
		if !strings.Contains(out, want) {
			t.Errorf("annotation report missing %q", want)
		}
	}
}

func TestComplianceReport(t *testing.T) {
	p, err := core.GenerateWithOptions(casestudy.Surgery(), core.Options{PotentialReads: core.PotentialReadsOff})
	if err != nil {
		t.Fatal(err)
	}
	set := policy.MustPolicySet(policy.PolicyFromModelFlows(p, casestudy.ServiceMedical))
	compliance, err := policy.NewChecker(set).Check(p)
	if err != nil {
		t.Fatal(err)
	}
	out := report.Compliance(compliance).Render()
	if !strings.Contains(out, "NON-COMPLIANT") {
		t.Errorf("compliance report should be non-compliant:\n%s", out)
	}
	if !strings.Contains(out, casestudy.ServiceResearch) {
		t.Error("missing offending service")
	}

	full := policy.MustPolicySet(
		policy.PolicyFromModelFlows(p, casestudy.ServiceMedical),
		policy.PolicyFromModelFlows(p, casestudy.ServiceResearch),
	)
	compliance, err = policy.NewChecker(full).Check(p)
	if err != nil {
		t.Fatal(err)
	}
	out = report.Compliance(compliance).Render()
	if !strings.Contains(out, "COMPLIANT —") {
		t.Errorf("compliance report should be compliant:\n%s", out)
	}
}
