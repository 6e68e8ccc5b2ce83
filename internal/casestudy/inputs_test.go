package casestudy_test

import (
	"context"
	"testing"

	"privascope/internal/accesscontrol"
	"privascope/internal/anonymize"
	"privascope/internal/casestudy"
	"privascope/internal/casestudy/casestudytest"
	"privascope/internal/core"
	"privascope/internal/risk"
)

func TestCaseStudyAMediumThenLow(t *testing.T) {
	// The headline of case study IV-A: with the original policy the
	// administrator's potential read of the EHR carries Medium risk for the
	// diagnosis; after the policy change it is reduced (the diagnosis finding
	// disappears and the residual administrator risk is Low).
	analyzer, err := risk.NewAnalyzer(risk.Config{})
	if err != nil {
		t.Fatal(err)
	}
	profile := casestudy.PatientProfile()

	before, err := core.Generate(casestudy.Surgery())
	if err != nil {
		t.Fatal(err)
	}
	beforeAssessment, err := analyzer.AnalyzeContext(context.Background(), before, profile)
	if err != nil {
		t.Fatal(err)
	}
	if got := beforeAssessment.MaxRiskFor(casestudy.ActorAdministrator); got != risk.LevelMedium {
		t.Errorf("administrator risk before mitigation = %v, want medium", got)
	}
	var diagnosisFinding bool
	for _, f := range beforeAssessment.Findings {
		if f.Actor == casestudy.ActorAdministrator && f.DrivingField == casestudy.FieldDiagnosis && f.Datastore == casestudy.StoreEHR {
			diagnosisFinding = true
			if f.Risk != risk.LevelMedium {
				t.Errorf("diagnosis finding risk = %v, want medium", f.Risk)
			}
		}
	}
	if !diagnosisFinding {
		t.Error("no administrator finding for the diagnosis on the EHR")
	}

	after, err := core.Generate(casestudy.SurgeryWithPolicy(casestudytest.MitigatedSurgeryACL()))
	if err != nil {
		t.Fatal(err)
	}
	afterAssessment, err := analyzer.AnalyzeContext(context.Background(), after, profile)
	if err != nil {
		t.Fatal(err)
	}
	if got := afterAssessment.MaxRiskFor(casestudy.ActorAdministrator); got > risk.LevelLow {
		t.Errorf("administrator risk after mitigation = %v, want at most low", got)
	}
	for _, f := range afterAssessment.Findings {
		if f.Actor == casestudy.ActorAdministrator && f.DrivingField == casestudy.FieldDiagnosis && f.Datastore == casestudy.StoreEHR {
			t.Error("diagnosis finding should disappear after the policy change")
		}
	}

	changes := risk.Compare(beforeAssessment, afterAssessment)
	var found bool
	for _, c := range changes {
		if c.Actor == casestudy.ActorAdministrator && c.Field == casestudy.FieldDiagnosis {
			found = true
			if c.Before != risk.LevelMedium {
				t.Errorf("change before = %v, want medium", c.Before)
			}
			if c.After >= risk.LevelMedium {
				t.Errorf("change after = %v, want below medium", c.After)
			}
		}
	}
	if !found {
		t.Error("Compare did not report the administrator/diagnosis change")
	}
}

func TestMitigationChangesOnlyAdministratorAccess(t *testing.T) {
	scope := accesscontrol.Scope{
		Actors: []string{casestudy.ActorReceptionist, casestudy.ActorDoctor, casestudy.ActorNurse, casestudy.ActorAdministrator, casestudy.ActorResearcher},
		Datastores: map[string][]string{
			casestudy.StoreEHR: {casestudy.FieldName, casestudy.FieldDateOfBirth, casestudy.FieldMedicalIssues, casestudy.FieldDiagnosis, casestudy.FieldTreatment},
		},
	}
	changes := accesscontrol.Diff(casestudy.SurgeryACL(), casestudytest.MitigatedSurgeryACL(), scope)
	if len(changes) == 0 {
		t.Fatal("mitigation produced no access changes")
	}
	for _, c := range changes {
		if c.Actor != casestudy.ActorAdministrator {
			t.Errorf("mitigation changed access for %q: %s", c.Actor, c)
		}
		if c.Field == casestudy.FieldName && c.Perm == accesscontrol.PermissionRead {
			t.Errorf("mitigation should keep the administrator's read access to the name field: %s", c)
		}
	}
}

func TestMetricsModelIsValid(t *testing.T) {
	m := casestudytest.Metrics()
	if err := m.Validate(); err != nil {
		t.Fatalf("Metrics model invalid: %v", err)
	}
	if len(m.ServiceFlows(casestudytest.ServiceMetricsStudy)) != 5 {
		t.Errorf("metrics-study flows = %d, want 5", len(m.ServiceFlows(casestudytest.ServiceMetricsStudy)))
	}
	// The researcher may read the anonymised store but not the raw store.
	policy := m.Policy
	if !policy.Allows(casestudy.ActorResearcher, casestudytest.StoreAnonMetrics, "weight_anon", accesscontrol.PermissionRead) {
		t.Error("researcher should read weight_anon")
	}
	if policy.Allows(casestudy.ActorResearcher, casestudytest.StoreMetrics, casestudytest.FieldWeight, accesscontrol.PermissionRead) {
		t.Error("researcher must not read the raw weight")
	}
}

func TestTableIRecords(t *testing.T) {
	tbl := casestudytest.TableIRecords()
	if tbl.NumRows() != 6 {
		t.Fatalf("rows = %d, want 6", tbl.NumRows())
	}
	classes, err := tbl.EquivalenceClasses(context.Background(), []string{casestudytest.FieldAge, casestudytest.FieldHeight})
	if err != nil {
		t.Fatal(err)
	}
	for _, class := range classes {
		if len(class) < 2 {
			t.Errorf("Table I records should be 2-anonymous, but rows %v form a class", class)
		}
	}
	v, err := tbl.Value(0, casestudytest.FieldWeight)
	if err != nil || v != anonymize.Num(100) {
		t.Errorf("first weight = %v, %v", v, err)
	}
}

// RawMetricsRecords returns a plausible raw (pre-anonymisation) version of
// the Table I records.
func RawMetricsRecords() *anonymize.Table {
	t := anonymize.MustTable(
		anonymize.Column{Name: casestudytest.FieldAge, Role: anonymize.RoleQuasiIdentifier},
		anonymize.Column{Name: casestudytest.FieldHeight, Role: anonymize.RoleQuasiIdentifier, Unit: "cm"},
		anonymize.Column{Name: casestudytest.FieldWeight, Role: anonymize.RoleSensitive, Unit: "kg"},
	)
	rows := [][3]float64{
		{34, 185, 100},
		{38, 192, 102},
		{25, 183, 110},
		{28, 199, 111},
		{22, 165, 80},
		{27, 171, 110},
	}
	for _, r := range rows {
		t.MustAddRow(anonymize.Num(r[0]), anonymize.Num(r[1]), anonymize.Num(r[2]))
	}
	return t
}

// TableIGeneralisation returns the generalisation spec that turns
// RawMetricsRecords into the 2-anonymised form of Table I: 10-year age bins
// and 20-cm height bins aligned to 0 and 160 respectively.
func TableIGeneralisation() anonymize.Spec {
	return anonymize.Spec{
		casestudytest.FieldAge:    anonymize.NumericBinning{Width: 10},
		casestudytest.FieldHeight: anonymize.NumericBinning{Width: 20},
	}
}

func TestRawMetricsGeneraliseToTableI(t *testing.T) {
	raw := RawMetricsRecords()
	anon, err := TableIGeneralisation().Apply(raw)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	want := casestudytest.TableIRecords()
	if anon.NumRows() != want.NumRows() {
		t.Fatalf("row mismatch: %d vs %d", anon.NumRows(), want.NumRows())
	}
	for r := 0; r < want.NumRows(); r++ {
		for _, col := range []string{casestudytest.FieldAge, casestudytest.FieldHeight, casestudytest.FieldWeight} {
			got, err := anon.Value(r, col)
			if err != nil {
				t.Fatal(err)
			}
			expected, err := want.Value(r, col)
			if err != nil {
				t.Fatal(err)
			}
			if got != expected {
				t.Errorf("row %d column %s = %v, want %v", r, col, got, expected)
			}
		}
	}
}

func TestResearchPolicy(t *testing.T) {
	p := casestudytest.ResearchPolicy()
	if err := p.Validate(); err != nil {
		t.Fatalf("policy invalid: %v", err)
	}
	if p.TargetField != casestudytest.FieldWeight || p.Closeness != 5 || p.Confidence != 0.9 {
		t.Errorf("policy = %+v, want weight/5kg/90%%", p)
	}
}

func TestMetricsLTSGenerates(t *testing.T) {
	p, err := core.GenerateWithOptionsContext(context.Background(), casestudytest.Metrics(), core.Options{FlowOrdering: core.OrderDataDriven})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(p.Warnings) != 0 {
		t.Errorf("unexpected warnings: %v", p.Warnings)
	}
	// There is a state where the researcher has read only the anonymised
	// weight, and one where they have read all three anonymised fields.
	var onlyWeight, all bool
	for _, id := range p.Graph.StateIDs() {
		v, _ := p.Vector(id)
		r := casestudy.ActorResearcher
		weight, age, height := v.Has(r, "weight_anon"), v.Has(r, "age_anon"), v.Has(r, "height_anon")
		onlyWeight = onlyWeight || weight && !age && !height
		all = all || weight && age && height
	}
	if !onlyWeight {
		t.Error("no state where the researcher has read only weight_anon")
	}
	if !all {
		t.Error("no state where the researcher has read every anonymised field")
	}
}
