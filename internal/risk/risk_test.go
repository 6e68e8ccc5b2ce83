package risk

import (
	"context"
	"strings"
	"testing"
	"testing/quick"

	"privascope/internal/accesscontrol"
	"privascope/internal/core"
	"privascope/internal/dataflow"
	"privascope/internal/schema"
)

// clinicModel builds the fixture used across the risk tests: a care service
// the user consents to, a research service they do not, and an administrator
// with maintenance read access to the EHR who takes part in no flow.
func clinicModel(t testing.TB, adminEHRFields []string) *dataflow.Model {
	t.Helper()
	ehrSchema := schema.MustSchema("ehr",
		schema.Field{Name: "name", Category: schema.CategoryIdentifier},
		schema.Field{Name: "diagnosis", Category: schema.CategorySensitive},
		schema.Field{Name: "treatment", Category: schema.CategorySensitive},
	)
	anonSchema := schema.MustSchema("anon_ehr",
		schema.Field{Name: "diagnosis_anon", Category: schema.CategorySensitive, Pseudonymised: true},
	)
	grants := []accesscontrol.Grant{
		{Actor: "doctor", Datastore: "ehr", Fields: []string{accesscontrol.AllFields},
			Permissions: []accesscontrol.Permission{accesscontrol.PermissionRead, accesscontrol.PermissionWrite}},
		{Actor: "nurse", Datastore: "ehr", Fields: []string{"name", "treatment"},
			Permissions: []accesscontrol.Permission{accesscontrol.PermissionRead}},
		{Actor: "researcher", Datastore: "anon_ehr", Fields: []string{accesscontrol.AllFields},
			Permissions: []accesscontrol.Permission{accesscontrol.PermissionRead}},
		{Actor: "doctor", Datastore: "anon_ehr", Fields: []string{accesscontrol.AllFields},
			Permissions: []accesscontrol.Permission{accesscontrol.PermissionWrite}},
	}
	if len(adminEHRFields) > 0 {
		grants = append(grants, accesscontrol.Grant{Actor: "admin", Datastore: "ehr", Fields: adminEHRFields,
			Permissions: []accesscontrol.Permission{accesscontrol.PermissionRead}, Reason: "maintenance"})
	}
	acl := accesscontrol.MustACL(grants...)

	b := dataflow.NewBuilder("clinic", dataflow.Actor{ID: "patient", Name: "Patient"})
	b.AddActors(
		dataflow.Actor{ID: "doctor", Name: "Doctor"},
		dataflow.Actor{ID: "nurse", Name: "Nurse"},
		dataflow.Actor{ID: "admin", Name: "Administrator"},
		dataflow.Actor{ID: "researcher", Name: "Researcher"},
	)
	b.AddDatastore(schema.Datastore{ID: "ehr", Name: "EHR", Schema: ehrSchema})
	b.AddDatastore(schema.Datastore{ID: "anon_ehr", Name: "Anonymised EHR", Schema: anonSchema, Anonymised: true})
	b.AddService(dataflow.Service{ID: "care", Name: "Care Service"})
	b.AddService(dataflow.Service{ID: "research", Name: "Research Service"})
	b.Flow("care", "patient", "doctor", []string{"name", "diagnosis"}, "consultation")
	b.AuthoredFlow("care", "doctor", "ehr", []string{"name", "diagnosis", "treatment"}, []string{"treatment"}, "record")
	b.Flow("care", "ehr", "nurse", []string{"name", "treatment"}, "administer treatment")
	b.Flow("research", "doctor", "anon_ehr", []string{"diagnosis"}, "anonymise")
	b.Flow("research", "anon_ehr", "researcher", []string{"diagnosis_anon"}, "analysis")
	b.WithPolicy(acl)
	return b.MustBuild()
}

func generate(t testing.TB, m *dataflow.Model) *core.PrivacyLTS {
	t.Helper()
	p, err := core.Generate(m)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return p
}

func patientProfile() UserProfile {
	return UserProfile{
		ID:                "patient-1",
		ConsentedServices: []string{"care"},
		Sensitivities: map[string]float64{
			"diagnosis":      SensitivityHigh,
			"diagnosis_anon": SensitivityMedium,
			"treatment":      SensitivityMedium,
		},
		DefaultSensitivity: 0.1,
	}
}

func TestLevelString(t *testing.T) {
	tests := []struct {
		l    Level
		want string
	}{
		{LevelNone, "none"}, {LevelLow, "low"}, {LevelMedium, "medium"}, {LevelHigh, "high"}, {Level(42), "level(42)"},
	}
	for _, tt := range tests {
		if got := tt.l.String(); got != tt.want {
			t.Errorf("Level(%d).String() = %q, want %q", int(tt.l), got, tt.want)
		}
	}
	for _, l := range []Level{LevelNone, LevelLow, LevelMedium, LevelHigh} {
		got, err := ParseLevel(l.String())
		if err != nil || got != l {
			t.Errorf("ParseLevel(%q) = %v, %v", l.String(), got, err)
		}
	}
	if _, err := ParseLevel("catastrophic"); err == nil {
		t.Error("ParseLevel(catastrophic) should fail")
	}
}

func TestUserProfile(t *testing.T) {
	p := patientProfile()
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := p.Sensitivity("diagnosis"); got != SensitivityHigh {
		t.Errorf("Sensitivity(diagnosis) = %v", got)
	}
	if got := p.Sensitivity("name"); got != 0.1 {
		t.Errorf("Sensitivity(name) = %v, want default", got)
	}
	bad := UserProfile{Sensitivities: map[string]float64{"x": 1.5}}
	if err := bad.Validate(); err == nil {
		t.Error("sensitivity > 1 accepted")
	}
	bad2 := UserProfile{DefaultSensitivity: -0.1}
	if err := bad2.Validate(); err == nil {
		t.Error("negative default sensitivity accepted")
	}
}

func TestMatrixBuckets(t *testing.T) {
	m := DefaultMatrix()
	if err := m.Validate(); err != nil {
		t.Fatalf("DefaultMatrix invalid: %v", err)
	}
	tests := []struct {
		impact float64
		want   Level
	}{
		{0, LevelNone}, {0.1, LevelLow}, {0.34, LevelMedium}, {0.5, LevelMedium}, {0.67, LevelHigh}, {1, LevelHigh},
	}
	for _, tt := range tests {
		if got := m.ImpactLevel(tt.impact); got != tt.want {
			t.Errorf("ImpactLevel(%v) = %v, want %v", tt.impact, got, tt.want)
		}
	}
	if got := m.LikelihoodLevel(0.15); got != LevelLow {
		t.Errorf("LikelihoodLevel(0.15) = %v, want low", got)
	}
	if got := m.LikelihoodLevel(0.3); got != LevelMedium {
		t.Errorf("LikelihoodLevel(0.3) = %v, want medium", got)
	}
	// High impact with low likelihood is medium risk (case study IV-A).
	if got := m.Risk(LevelHigh, LevelLow); got != LevelMedium {
		t.Errorf("Risk(high, low) = %v, want medium", got)
	}
	if got := m.Risk(LevelLow, LevelLow); got != LevelLow {
		t.Errorf("Risk(low, low) = %v, want low", got)
	}
	if got := m.Risk(LevelNone, LevelHigh); got != LevelNone {
		t.Errorf("Risk(none, high) = %v, want none", got)
	}
	if got := m.Risk(LevelHigh, LevelHigh); got != LevelHigh {
		t.Errorf("Risk(high, high) = %v, want high", got)
	}
}

func TestMatrixValidateRejections(t *testing.T) {
	m := DefaultMatrix()
	m.ImpactThresholds = [2]float64{0.9, 0.1}
	if err := m.Validate(); err == nil {
		t.Error("descending impact thresholds accepted")
	}
	m = DefaultMatrix()
	m.LikelihoodThresholds = [2]float64{-0.5, 0.5}
	if err := m.Validate(); err == nil {
		t.Error("negative likelihood threshold accepted")
	}
	m = DefaultMatrix()
	m.Table[0][0] = Level(99)
	if err := m.Validate(); err == nil {
		t.Error("invalid table level accepted")
	}
}

func TestMatrixMonotonicProperty(t *testing.T) {
	// Property: with the default matrix, risk is monotone in impact and
	// likelihood.
	m := DefaultMatrix()
	levels := []Level{LevelLow, LevelMedium, LevelHigh}
	f := func(i1, l1, i2, l2 uint8) bool {
		a := levels[int(i1)%3]
		b := levels[int(l1)%3]
		c := levels[int(i2)%3]
		d := levels[int(l2)%3]
		if a <= c && b <= d {
			return m.Risk(a, b) <= m.Risk(c, d)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNewAnalyzerValidation(t *testing.T) {
	if _, err := NewAnalyzer(Config{}); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	if _, err := NewAnalyzer(Config{Scenarios: []Scenario{{Name: "x", Probability: 2}}}); err == nil {
		t.Error("scenario probability > 1 accepted")
	}
	badMatrix := DefaultMatrix()
	badMatrix.Table[1][1] = Level(77)
	if _, err := NewAnalyzer(Config{Matrix: badMatrix}); err == nil {
		t.Error("invalid matrix accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustAnalyzer should panic on invalid config")
		}
	}()
	MustAnalyzer(Config{Scenarios: []Scenario{{Name: "x", Probability: -1}}})
}

func TestAnalyzeErrors(t *testing.T) {
	a := MustAnalyzer(Config{})
	if _, err := a.AnalyzeContext(context.Background(), nil, patientProfile()); err == nil {
		t.Error("nil LTS accepted")
	}
	p := generate(t, clinicModel(t, []string{accesscontrol.AllFields}))
	bad := patientProfile()
	bad.Sensitivities["x"] = 3
	if _, err := a.AnalyzeContext(context.Background(), p, bad); err == nil {
		t.Error("invalid profile accepted")
	}
	unknown := patientProfile()
	unknown.ConsentedServices = []string{"ghost-service"}
	if _, err := a.AnalyzeContext(context.Background(), p, unknown); err == nil {
		t.Error("consent to unknown service accepted")
	}
}

func TestAnalyzeIdentifiesUnwantedDisclosure(t *testing.T) {
	// Case study IV-A shape: the user consents to the care service only and
	// is highly sensitive about the diagnosis. The administrator has read
	// access to the EHR, so after the care service runs the administrator
	// could read the diagnosis: a Medium-risk finding.
	p := generate(t, clinicModel(t, []string{accesscontrol.AllFields}))
	a := MustAnalyzer(Config{})
	assessment, err := a.AnalyzeContext(context.Background(), p, patientProfile())
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}

	wantAllowed := []string{"doctor", "nurse"}
	if len(assessment.AllowedActors) != len(wantAllowed) {
		t.Errorf("AllowedActors = %v", assessment.AllowedActors)
	}
	wantNonAllowed := map[string]bool{"admin": true, "researcher": true}
	for _, actor := range assessment.NonAllowedActors {
		if !wantNonAllowed[actor] {
			t.Errorf("unexpected non-allowed actor %q", actor)
		}
	}

	adminFindings := assessment.FindingsFor("admin")
	if len(adminFindings) == 0 {
		t.Fatal("no findings for the administrator")
	}
	var adminDiagnosis *Finding
	for i := range adminFindings {
		if adminFindings[i].DrivingField == "diagnosis" {
			adminDiagnosis = &adminFindings[i]
			break
		}
	}
	if adminDiagnosis == nil {
		t.Fatalf("no administrator finding driven by the diagnosis; findings: %+v", adminFindings)
	}
	if adminDiagnosis.Risk != LevelMedium {
		t.Errorf("administrator diagnosis risk = %v, want medium", adminDiagnosis.Risk)
	}
	if adminDiagnosis.ImpactLevel != LevelHigh {
		t.Errorf("impact level = %v, want high", adminDiagnosis.ImpactLevel)
	}
	if adminDiagnosis.LikelihoodLevel != LevelLow {
		t.Errorf("likelihood level = %v, want low", adminDiagnosis.LikelihoodLevel)
	}
	if adminDiagnosis.Explanation == "" || adminDiagnosis.Mitigation == "" {
		t.Error("finding should carry explanation and mitigation")
	}
	if assessment.OverallRisk < LevelMedium {
		t.Errorf("OverallRisk = %v, want at least medium", assessment.OverallRisk)
	}

	// Findings are sorted by decreasing risk.
	for i := 1; i < len(assessment.Findings); i++ {
		if assessment.Findings[i-1].Risk < assessment.Findings[i].Risk {
			t.Error("findings not sorted by risk")
			break
		}
	}
	if got := assessment.MaxRiskFor("admin"); got != LevelMedium {
		t.Errorf("MaxRiskFor(admin) = %v", got)
	}
	if got := assessment.MaxRiskFor("doctor"); got != LevelNone {
		t.Errorf("MaxRiskFor(doctor) = %v, want none (allowed actor)", got)
	}
}

func TestAnalyzeMitigationReducesRisk(t *testing.T) {
	// Before: administrator may read the whole EHR -> medium risk on the
	// diagnosis. After restricting the administrator to the name field, the
	// diagnosis finding disappears and the admin's residual risk is low.
	before := generate(t, clinicModel(t, []string{accesscontrol.AllFields}))
	after := generate(t, clinicModel(t, []string{"name"}))
	a := MustAnalyzer(Config{})

	beforeAssessment, err := a.AnalyzeContext(context.Background(), before, patientProfile())
	if err != nil {
		t.Fatal(err)
	}
	afterAssessment, err := a.AnalyzeContext(context.Background(), after, patientProfile())
	if err != nil {
		t.Fatal(err)
	}
	if beforeAssessment.MaxRiskFor("admin") != LevelMedium {
		t.Errorf("before: admin risk = %v, want medium", beforeAssessment.MaxRiskFor("admin"))
	}
	if got := afterAssessment.MaxRiskFor("admin"); got > LevelLow {
		t.Errorf("after: admin risk = %v, want at most low", got)
	}

	changes := Compare(beforeAssessment, afterAssessment)
	if len(changes) == 0 {
		t.Fatal("Compare returned no changes")
	}
	var diagnosisChange *Change
	for i := range changes {
		if changes[i].Actor == "admin" && changes[i].Field == "diagnosis" {
			diagnosisChange = &changes[i]
		}
	}
	if diagnosisChange == nil {
		t.Fatalf("no change entry for admin/diagnosis: %+v", changes)
	}
	if diagnosisChange.Before != LevelMedium || diagnosisChange.After != LevelNone {
		t.Errorf("diagnosis change = %s, want medium -> none", diagnosisChange)
	}
	if !strings.Contains(diagnosisChange.String(), "->") {
		t.Error("Change.String() malformed")
	}
}

func TestAnalyzeConsentChangesAllowedActors(t *testing.T) {
	p := generate(t, clinicModel(t, []string{accesscontrol.AllFields}))
	a := MustAnalyzer(Config{})

	// A user who also consents to the research service makes the researcher
	// an allowed actor: findings driven by the researcher disappear.
	consentBoth := patientProfile()
	consentBoth.ConsentedServices = []string{"care", "research"}
	assessment, err := a.AnalyzeContext(context.Background(), p, consentBoth)
	if err != nil {
		t.Fatal(err)
	}
	if got := assessment.MaxRiskFor("researcher"); got != LevelNone {
		t.Errorf("researcher risk with consent = %v, want none", got)
	}
	for _, actor := range assessment.NonAllowedActors {
		if actor == "researcher" {
			t.Error("researcher should be allowed when research service is consented")
		}
	}

	// A user who consents to nothing sees every actor as non-allowed and a
	// higher overall risk (the declared care-service flows themselves become
	// disclosure events).
	consentNone := patientProfile()
	consentNone.ConsentedServices = nil
	none, err := a.AnalyzeContext(context.Background(), p, consentNone)
	if err != nil {
		t.Fatal(err)
	}
	if len(none.AllowedActors) != 0 {
		t.Errorf("AllowedActors without consent = %v", none.AllowedActors)
	}
	if none.OverallRisk < assessment.OverallRisk {
		t.Errorf("risk without consent (%v) should be >= risk with consent (%v)",
			none.OverallRisk, assessment.OverallRisk)
	}
	if got := none.MaxRiskFor("doctor"); got == LevelNone {
		t.Error("doctor handling data without consent should carry some risk")
	}
}

func TestAnalyzeInsensitiveUserHasNoFindings(t *testing.T) {
	p := generate(t, clinicModel(t, []string{accesscontrol.AllFields}))
	a := MustAnalyzer(Config{})
	indifferent := UserProfile{ID: "u", ConsentedServices: []string{"care", "research"}}
	assessment, err := a.AnalyzeContext(context.Background(), p, indifferent)
	if err != nil {
		t.Fatal(err)
	}
	if len(assessment.Findings) != 0 {
		t.Errorf("indifferent user has %d findings", len(assessment.Findings))
	}
	if assessment.OverallRisk != LevelNone {
		t.Errorf("OverallRisk = %v, want none", assessment.OverallRisk)
	}
}

func TestCompareNilAssessments(t *testing.T) {
	p := generate(t, clinicModel(t, []string{accesscontrol.AllFields}))
	a := MustAnalyzer(Config{})
	assessment, err := a.AnalyzeContext(context.Background(), p, patientProfile())
	if err != nil {
		t.Fatal(err)
	}
	changes := Compare(nil, assessment)
	if len(changes) == 0 {
		t.Fatal("Compare(nil, a) should report the new findings")
	}
	for _, c := range changes {
		if c.Before != LevelNone {
			t.Errorf("before level for new finding = %v, want none", c.Before)
		}
	}
}

func TestDefaultScenarios(t *testing.T) {
	scenarios := DefaultScenarios()
	if len(scenarios) != 3 {
		t.Fatalf("len(DefaultScenarios()) = %d, want 3", len(scenarios))
	}
	total := 0.0
	var hasServiceScenario bool
	for _, s := range scenarios {
		if s.Probability <= 0 || s.Probability > 1 {
			t.Errorf("scenario %q probability %v out of range", s.Name, s.Probability)
		}
		if s.AppliesToService {
			hasServiceScenario = true
		}
		total += s.Probability
	}
	if !hasServiceScenario {
		t.Error("no scenario models execution of a non-consented service")
	}
	if total > 1 {
		t.Errorf("default scenario probabilities sum to %v > 1", total)
	}
}
