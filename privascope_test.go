package privascope_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"privascope"
	"privascope/internal/casestudy"
	"privascope/internal/casestudy/casestudytest"
)

// buildClinic assembles a small model entirely through the public facade.
func buildClinic(t testing.TB) *privascope.Model {
	t.Helper()
	acl, err := privascope.NewACL(
		privascope.Grant{Actor: "doctor", Datastore: "ehr", Fields: []string{privascope.AllFields},
			Permissions: []privascope.Permission{privascope.PermissionRead, privascope.PermissionWrite}},
		privascope.Grant{Actor: "admin", Datastore: "ehr", Fields: []string{privascope.AllFields},
			Permissions: []privascope.Permission{privascope.PermissionRead}, Reason: "maintenance"},
	)
	if err != nil {
		t.Fatalf("NewACL: %v", err)
	}
	b := privascope.NewModelBuilder("facade-clinic", privascope.Actor{ID: "patient", Name: "Patient"})
	b.AddActors(
		privascope.Actor{ID: "doctor", Name: "Doctor"},
		privascope.Actor{ID: "admin", Name: "Administrator"},
	)
	b.AddDatastore(privascope.Datastore{ID: "ehr", Name: "EHR", Schema: mustSchema(t)})
	b.AddService(privascope.Service{ID: "care", Name: "Care"})
	b.Flow("care", "patient", "doctor", []string{"name", "diagnosis"}, "consultation")
	b.Flow("care", "doctor", "ehr", []string{"name", "diagnosis"}, "record")
	b.WithPolicy(acl)
	m, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return m
}

func mustSchema(t testing.TB) privascope.Schema {
	t.Helper()
	s := privascope.Schema{
		Name: "ehr",
		Fields: []privascope.Field{
			{Name: "name", Category: privascope.CategoryIdentifier},
			{Name: "diagnosis", Category: privascope.CategorySensitive},
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAssessPipeline(t *testing.T) {
	model := buildClinic(t)
	profile := privascope.UserProfile{
		ID:                 "alice",
		ConsentedServices:  []string{"care"},
		Sensitivities:      map[string]float64{"diagnosis": privascope.SensitivityHigh},
		DefaultSensitivity: 0.1,
	}
	result, err := privascope.Assess(model, profile)
	if err != nil {
		t.Fatalf("Assess: %v", err)
	}
	if result.PrivacyModel.Stats().States == 0 {
		t.Error("empty privacy model")
	}
	if result.Assessment.OverallRisk < privascope.RiskMedium {
		t.Errorf("overall risk = %v, want at least medium (admin can read the diagnosis)", result.Assessment.OverallRisk)
	}
	text := result.Report.Render()
	for _, want := range []string{"facade-clinic", "Findings", "admin"} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// Invalid model propagates an error.
	if _, err := privascope.Assess(&privascope.Model{}, profile); err == nil {
		t.Error("Assess of invalid model should fail")
	}
}

func TestFacadeGenerateAndAnalyze(t *testing.T) {
	model := buildClinic(t)
	p, err := privascope.GenerateWithOptions(model, privascope.GenerateOptions{
		FlowOrdering:   privascope.OrderSequential,
		PotentialReads: privascope.PotentialReadsTerminal,
	})
	if err != nil {
		t.Fatalf("GenerateWithOptions: %v", err)
	}
	profile := privascope.UserProfile{ID: "alice", ConsentedServices: []string{"care"},
		Sensitivities: map[string]float64{"diagnosis": privascope.SensitivityHigh}}
	assessment, err := privascope.AnalyzeDisclosure(p, profile, privascope.RiskConfig{})
	if err != nil {
		t.Fatalf("AnalyzeDisclosure: %v", err)
	}
	if got := assessment.MaxRiskFor("admin"); got != privascope.RiskMedium {
		t.Errorf("admin risk = %v, want medium", got)
	}
	if out := privascope.RenderAssessment(assessment); !strings.Contains(out, "admin") {
		t.Error("RenderAssessment missing admin")
	}
	if out := privascope.RenderModelSummary(p); !strings.Contains(out, "states") {
		t.Error("RenderModelSummary missing states")
	}
	changes := privascope.CompareAssessments(nil, assessment)
	if len(changes) == 0 {
		t.Error("CompareAssessments returned nothing")
	}
}

func TestFacadePseudonymisation(t *testing.T) {
	evaluator, err := privascope.NewValueRiskEvaluator(casestudytest.TableIRecords(), casestudytest.ResearchPolicy())
	if err != nil {
		t.Fatalf("NewValueRiskEvaluator: %v", err)
	}
	scenario, err := evaluator.Evaluate(context.Background(), []string{"age", "height"})
	if err != nil {
		t.Fatal(err)
	}
	if scenario.Violations != 4 {
		t.Errorf("violations = %d, want 4", scenario.Violations)
	}
	annotation, err := privascope.AnalyzePseudonymisation(casestudytest.Metrics(),
		casestudy.ActorResearcher, casestudytest.ResearchPolicy(), casestudytest.TableIRecords())
	if err != nil {
		t.Fatalf("AnalyzePseudonymisation: %v", err)
	}
	// Fig. 4's model: the declared flows alone, in data-driven order.
	if got := annotation.LTS.Stats().States; got != 12 {
		t.Errorf("annotated model has %d states, want 12", got)
	}
	most := 0
	for _, rt := range annotation.RiskTransitions {
		most = max(most, rt.Result.Violations)
	}
	if most != 4 {
		t.Errorf("most violations = %d, want 4", most)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := privascope.AnalyzePseudonymisationContext(ctx, casestudytest.Metrics(),
		casestudy.ActorResearcher, casestudytest.ResearchPolicy(), casestudytest.TableIRecords()); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled AnalyzePseudonymisationContext returned %v, want context.Canceled", err)
	}
}

func TestFacadeKAnonymizeAndSynthetics(t *testing.T) {
	table := privascope.SyntheticHealthRecords(30, 2)
	anon, result, err := privascope.KAnonymize(table, []string{"age", "height"}, 3)
	if err != nil {
		t.Fatalf("KAnonymize: %v", err)
	}
	if anon.NumRows() != 30 {
		t.Errorf("anonymised rows = %d", anon.NumRows())
	}
	if result.K != 3 {
		t.Errorf("result.K = %d", result.K)
	}
}

func TestFacadeComplianceAndPolicies(t *testing.T) {
	p, err := privascope.Generate(casestudy.Surgery())
	if err != nil {
		t.Fatal(err)
	}
	medical := privascope.DerivePolicy(p, casestudy.ServiceMedical)
	research := privascope.DerivePolicy(p, casestudy.ServiceResearch)
	reportOut, err := privascope.CheckCompliance(p, medical, research)
	if err != nil {
		t.Fatalf("CheckCompliance: %v", err)
	}
	if !reportOut.Compliant {
		t.Errorf("derived policies should be compliant: %+v", reportOut.Violations)
	}
	partial, err := privascope.CheckCompliance(p, medical)
	if err != nil {
		t.Fatal(err)
	}
	if partial.Compliant {
		t.Error("partial policy coverage should not be compliant")
	}
}

func TestFacadeSaveLoadModel(t *testing.T) {
	model := buildClinic(t)
	path := t.TempDir() + "/model.json"
	if err := privascope.SaveModel(model, path); err != nil {
		t.Fatalf("SaveModel: %v", err)
	}
	loaded, err := privascope.LoadModel(path)
	if err != nil {
		t.Fatalf("LoadModel: %v", err)
	}
	if loaded.Name != model.Name {
		t.Errorf("loaded name = %q", loaded.Name)
	}
	if loaded.Policy == nil {
		t.Error("loaded model lost its policy")
	}
}

func TestFacadeRuntimeMonitoring(t *testing.T) {
	p, err := privascope.Generate(casestudy.Surgery())
	if err != nil {
		t.Fatal(err)
	}
	monitor, err := privascope.NewMonitor(p, privascope.MonitorConfig{})
	if err != nil {
		t.Fatalf("NewMonitor: %v", err)
	}
	if err := monitor.RegisterUser(casestudy.PatientProfile()); err != nil {
		t.Fatalf("RegisterUser: %v", err)
	}
	if got := monitor.Users(); len(got) != 1 {
		t.Errorf("Users() = %v", got)
	}
}
