package pseudorisk_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"privascope/internal/anonymize"
	"privascope/internal/casestudy"
	"privascope/internal/core"
	"privascope/internal/pseudorisk"
)

func evaluator(t testing.TB) *pseudorisk.Evaluator {
	t.Helper()
	e, err := pseudorisk.NewEvaluator(casestudy.TableIRecords(), casestudy.ResearchPolicy())
	if err != nil {
		t.Fatalf("NewEvaluator: %v", err)
	}
	return e
}

func TestPolicyValidate(t *testing.T) {
	good := casestudy.ResearchPolicy()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid policy rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*pseudorisk.Policy)
	}{
		{"empty target", func(p *pseudorisk.Policy) { p.TargetField = " " }},
		{"negative closeness", func(p *pseudorisk.Policy) { p.Closeness = -1 }},
		{"zero confidence", func(p *pseudorisk.Policy) { p.Confidence = 0 }},
		{"confidence above one", func(p *pseudorisk.Policy) { p.Confidence = 1.5 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := casestudy.ResearchPolicy()
			tt.mutate(&p)
			if err := p.Validate(); err == nil {
				t.Error("invalid policy accepted")
			}
		})
	}
}

func TestNewEvaluatorValidation(t *testing.T) {
	if _, err := pseudorisk.NewEvaluator(nil, casestudy.ResearchPolicy()); err == nil {
		t.Error("nil table accepted")
	}
	bad := casestudy.ResearchPolicy()
	bad.TargetField = "ghost"
	if _, err := pseudorisk.NewEvaluator(casestudy.TableIRecords(), bad); err == nil {
		t.Error("policy targeting a missing column accepted")
	}
	e := evaluator(t)
	if e.Table() == nil || e.Policy().TargetField != "weight" {
		t.Error("accessors misbehave")
	}
}

func TestEvaluateReproducesTableI(t *testing.T) {
	e := evaluator(t)
	tests := []struct {
		name           string
		visible        []string
		wantFractions  []string
		wantViolations int
	}{
		{"height only", []string{"height"}, []string{"2/4", "2/4", "2/4", "2/4", "1/2", "1/2"}, 0},
		{"age only", []string{"age"}, []string{"2/2", "2/2", "3/4", "3/4", "1/4", "3/4"}, 2},
		{"age and height", []string{"age", "height"}, []string{"2/2", "2/2", "2/2", "2/2", "1/2", "1/2"}, 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			result, err := e.Evaluate(ctx, tt.visible)
			if err != nil {
				t.Fatalf("Evaluate: %v", err)
			}
			got := make([]string, len(result.Risks))
			for i, f := range result.Fractions() {
				got[i] = f.String()
			}
			if !reflect.DeepEqual(got, tt.wantFractions) {
				t.Errorf("fractions = %v, want %v", got, tt.wantFractions)
			}
			if result.Violations != tt.wantViolations {
				t.Errorf("violations = %d, want %d", result.Violations, tt.wantViolations)
			}
			wantFraction := float64(tt.wantViolations) / 6
			if result.ViolationFraction != wantFraction {
				t.Errorf("violation fraction = %v, want %v", result.ViolationFraction, wantFraction)
			}
		})
	}
}

func TestEvaluateIgnoresTargetAndUnknownColumns(t *testing.T) {
	e := evaluator(t)
	// The target column and unknown fields must not act as quasi-identifiers.
	result, err := e.Evaluate(ctx, []string{"weight", "shoe_size_anon", "age"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(result.VisibleFields, []string{"age"}) {
		t.Errorf("visible fields = %v, want [age]", result.VisibleFields)
	}
	if result.Violations != 2 {
		t.Errorf("violations = %d, want 2 (age-only scenario)", result.Violations)
	}
	if result.Key() != "age" {
		t.Errorf("Key() = %q", result.Key())
	}
}

func TestEvaluateProgression(t *testing.T) {
	e := evaluator(t)
	results, err := e.EvaluateProgression(ctx, [][]string{{"height"}, {"age"}, {"age", "height"}})
	if err != nil {
		t.Fatal(err)
	}
	var counts []int
	for _, r := range results {
		counts = append(counts, r.Violations)
	}
	if !reflect.DeepEqual(counts, []int{0, 2, 4}) {
		t.Errorf("violation progression = %v, want [0 2 4] (Table I)", counts)
	}
}

func TestCheckThreshold(t *testing.T) {
	e := evaluator(t)
	results, err := e.EvaluateProgression(ctx, [][]string{{"height"}, {"age"}, {"age", "height"}})
	if err != nil {
		t.Fatal(err)
	}
	// "a number of violations above 50% is unacceptable": 4/6 > 0.5 fails.
	err = pseudorisk.CheckThreshold(results, 0.5)
	if err == nil {
		t.Fatal("expected threshold violation")
	}
	if !errors.Is(err, pseudorisk.ErrThresholdExceeded) {
		t.Errorf("error should wrap ErrThresholdExceeded, got %v", err)
	}
	if !strings.Contains(err.Error(), "age+height") {
		t.Errorf("error should name the offending scenario: %v", err)
	}
	// A permissive threshold passes.
	if err := pseudorisk.CheckThreshold(results, 0.7); err != nil {
		t.Errorf("threshold 0.7 should pass, got %v", err)
	}
	// Empty results always pass.
	if err := pseudorisk.CheckThreshold(nil, 0); err != nil {
		t.Errorf("empty results should pass, got %v", err)
	}
}

func metricsLTS(t testing.TB) *core.PrivacyLTS {
	t.Helper()
	p, err := core.GenerateWithOptions(casestudy.Metrics(), core.Options{
		FlowOrdering:   core.OrderDataDriven,
		PotentialReads: core.PotentialReadsOff,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return p
}

func TestAnalyzeLTSFig4(t *testing.T) {
	p := metricsLTS(t)
	annotation, err := pseudorisk.AnalyzeLTS(ctx, p, pseudorisk.Options{
		Actor:  casestudy.ActorResearcher,
		Policy: casestudy.ResearchPolicy(),
		Table:  casestudy.TableIRecords(),
	})
	if err != nil {
		t.Fatalf("AnalyzeLTS: %v", err)
	}
	if len(annotation.RiskTransitions) == 0 {
		t.Fatal("no risk transitions produced")
	}

	// Every risk transition starts from a state where the researcher has the
	// anonymised weight.
	for _, rt := range annotation.RiskTransitions {
		if !p.Has(rt.From, casestudy.ActorResearcher, "weight_anon") {
			t.Errorf("risk transition from %s but weight_anon not read there", rt.From)
		}
		if rt.LabelString() == "" {
			t.Error("empty label string")
		}
	}

	// The violation counts across at-risk states include the paper's 0, 2
	// and 4 (Fig. 4): no quasi-identifier read, only age, and age+height.
	seen := make(map[int]bool)
	for _, rt := range annotation.RiskTransitions {
		seen[rt.Result.Violations] = true
	}
	for _, want := range []int{0, 2, 4} {
		if !seen[want] {
			t.Errorf("no risk transition with %d violations; counts = %v", want, annotation.ViolationCounts())
		}
	}
	if annotation.MaxViolations() != 4 {
		t.Errorf("MaxViolations = %d, want 4", annotation.MaxViolations())
	}
	if len(annotation.Violations()) == 0 {
		t.Error("Violations() should list the violating transitions")
	}

	// Design-time gate: 4/6 violations exceed a 50% threshold.
	if err := annotation.CheckThreshold(0.5); err == nil {
		t.Error("CheckThreshold(0.5) should fail for the Table I data")
	}
	if err := annotation.CheckThreshold(0.99); err != nil {
		t.Errorf("CheckThreshold(0.99) should pass, got %v", err)
	}
}

func TestAnalyzeLTSDOT(t *testing.T) {
	p := metricsLTS(t)
	annotation, err := pseudorisk.AnalyzeLTS(ctx, p, pseudorisk.Options{
		Actor:  casestudy.ActorResearcher,
		Policy: casestudy.ResearchPolicy(),
		Table:  casestudy.TableIRecords(),
	})
	if err != nil {
		t.Fatal(err)
	}
	out := annotation.DOT("fig4")
	if !strings.HasPrefix(out, "digraph fig4 {") {
		t.Errorf("DOT output malformed:\n%.80s", out)
	}
	if !strings.Contains(out, `style="dotted"`) {
		t.Error("risk transitions should be dotted (Fig. 4)")
	}
	if !strings.Contains(out, "violations") {
		t.Error("risk nodes should carry violation counts")
	}
	if strings.Count(out, "}") < 1 || !strings.HasSuffix(strings.TrimSpace(out), "}") {
		t.Error("DOT output should remain a single closed graph")
	}
}

func TestAnalyzeLTSErrors(t *testing.T) {
	p := metricsLTS(t)
	table := casestudy.TableIRecords()
	policy := casestudy.ResearchPolicy()

	if _, err := pseudorisk.AnalyzeLTS(ctx, nil, pseudorisk.Options{Actor: "x", Policy: policy, Table: table}); err == nil {
		t.Error("nil LTS accepted")
	}
	if _, err := pseudorisk.AnalyzeLTS(ctx, p, pseudorisk.Options{Actor: " ", Policy: policy, Table: table}); err == nil {
		t.Error("empty actor accepted")
	}
	if _, err := pseudorisk.AnalyzeLTS(ctx, p, pseudorisk.Options{Actor: "ghost", Policy: policy, Table: table}); err == nil {
		t.Error("unknown actor accepted")
	}
	if _, err := pseudorisk.AnalyzeLTS(ctx, p, pseudorisk.Options{Actor: casestudy.ActorResearcher, Policy: policy}); err == nil {
		t.Error("nil table accepted")
	}
	// An actor who may read the original field is not a pseudonymisation
	// risk (the disclosure analysis covers them).
	if _, err := pseudorisk.AnalyzeLTS(ctx, p, pseudorisk.Options{
		Actor: casestudy.ActorDataManager, Policy: policy, Table: table,
	}); err == nil {
		t.Error("actor with access to the raw field accepted")
	}
	// An actor with no access to the anonymised field has no value risk.
	if _, err := pseudorisk.AnalyzeLTS(ctx, p, pseudorisk.Options{
		Actor: casestudy.ActorClinician, Policy: policy, Table: table,
	}); err == nil {
		t.Error("actor without anon access accepted")
	}
	// A policy targeting a field with no pseudonymised form in the model.
	badPolicy := policy
	badPolicy.TargetField = "shoe_size"
	badTable := casestudy.TableIRecords().Clone()
	// Give the table the required target column so NewEvaluator passes and
	// the model check is exercised.
	_ = badTable
	if _, err := pseudorisk.AnalyzeLTS(ctx, p, pseudorisk.Options{
		Actor: casestudy.ActorResearcher, Policy: badPolicy, Table: table,
	}); err == nil {
		t.Error("policy for unknown field accepted")
	}
}

func TestAnalyzeLTSFieldColumnMapping(t *testing.T) {
	// Rename the dataset columns and map the model's anon fields onto them.
	table := anonymize.MustTable(
		anonymize.Column{Name: "age_years", Role: anonymize.RoleQuasiIdentifier},
		anonymize.Column{Name: "height_cm", Role: anonymize.RoleQuasiIdentifier},
		anonymize.Column{Name: "weight", Role: anonymize.RoleSensitive},
	)
	src := casestudy.TableIRecords()
	for r := 0; r < src.NumRows(); r++ {
		age, _ := src.Value(r, "age")
		height, _ := src.Value(r, "height")
		weight, _ := src.Value(r, "weight")
		table.MustAddRow(age, height, weight)
	}
	p := metricsLTS(t)
	annotation, err := pseudorisk.AnalyzeLTS(ctx, p, pseudorisk.Options{
		Actor:  casestudy.ActorResearcher,
		Policy: casestudy.ResearchPolicy(),
		Table:  table,
		FieldColumns: map[string]string{
			"age_anon":    "age_years",
			"height_anon": "height_cm",
		},
	})
	if err != nil {
		t.Fatalf("AnalyzeLTS with mapping: %v", err)
	}
	if annotation.MaxViolations() != 4 {
		t.Errorf("MaxViolations with mapped columns = %d, want 4", annotation.MaxViolations())
	}
}
