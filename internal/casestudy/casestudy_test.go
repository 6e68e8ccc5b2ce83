package casestudy

import (
	"context"
	"slices"
	"testing"

	"privascope/internal/accesscontrol"
	"privascope/internal/anonymize"
	"privascope/internal/core"
	"privascope/internal/lts"
	"privascope/internal/risk"
)

func TestSurgeryModelIsValid(t *testing.T) {
	m := Surgery()
	if err := m.Validate(); err != nil {
		t.Fatalf("Surgery model invalid: %v", err)
	}
	if len(m.Actors) != 5 {
		t.Errorf("actors = %d, want 5 (paper Section II-B)", len(m.Actors))
	}
	if len(m.Datastores) != 3 {
		t.Errorf("datastores = %d, want 3", len(m.Datastores))
	}
	if len(m.Services) != 2 {
		t.Errorf("services = %d, want 2", len(m.Services))
	}
	if len(m.ServiceFlows(ServiceMedical)) != 6 {
		t.Errorf("medical service flows = %d, want 6", len(m.ServiceFlows(ServiceMedical)))
	}
	if len(m.ServiceFlows(ServiceResearch)) != 3 {
		t.Errorf("research service flows = %d, want 3", len(m.ServiceFlows(ServiceResearch)))
	}
}

func TestSurgeryBaseFieldCountMatchesPaper(t *testing.T) {
	// The paper counts six data fields (Name, Date of Birth, Appointment,
	// Medical Issues, Diagnosis, Treatment Information) and five actors,
	// giving 60 Boolean state variables. Our field universe additionally
	// carries the pseudonymised forms stored in the anonymised EHR, so we
	// check the base-field count here and the 60-variable computation on the
	// base vocabulary.
	m := Surgery()
	base := 0
	for _, f := range m.FieldUniverse() {
		if !isAnon(f) {
			base++
		}
	}
	if base != 6 {
		t.Errorf("base fields = %d, want 6", base)
	}
	vocab := core.NewVocabulary(m.ActorIDs(), []string{
		FieldName, FieldDateOfBirth, FieldAppointment, FieldMedicalIssues, FieldDiagnosis, FieldTreatment,
	})
	if got := vocab.NumVariables(); got != 60 {
		t.Errorf("state variables over base fields = %d, want 60", got)
	}
}

func isAnon(field string) bool {
	return len(field) > 5 && field[len(field)-5:] == "_anon"
}

func TestSurgeryLTSGenerates(t *testing.T) {
	p, err := core.Generate(Surgery())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(p.Warnings) != 0 {
		t.Errorf("unexpected generation warnings: %v", p.Warnings)
	}
	stats := p.Stats()
	if stats.States == 0 || stats.Transitions == 0 {
		t.Fatalf("empty LTS: %+v", stats)
	}
	// The administrator never takes part in a medical-service flow but could
	// identify the diagnosis once it reaches the EHR.
	finals := statesWhere(p, func(v core.StateVector) bool { return v.Has(ActorNurse, FieldTreatment) })
	if len(finals) == 0 {
		t.Fatal("medical service never completes")
	}
	for _, id := range finals {
		if v, _ := p.Vector(id); !v.Get(ActorAdministrator, FieldDiagnosis, core.CouldIdentify) {
			t.Errorf("state %s: administrator should be able to identify the diagnosis", id)
		}
	}
}

// statesWhere returns the states of p whose vector satisfies pred.
func statesWhere(p *core.PrivacyLTS, pred func(core.StateVector) bool) []lts.StateID {
	var out []lts.StateID
	for _, id := range p.Graph.StateIDs() {
		if v, _ := p.Vector(id); pred(v) {
			out = append(out, id)
		}
	}
	return out
}

func TestCaseStudyAMediumThenLow(t *testing.T) {
	// The headline of case study IV-A: with the original policy the
	// administrator's potential read of the EHR carries Medium risk for the
	// diagnosis; after the policy change it is reduced (the diagnosis finding
	// disappears and the residual administrator risk is Low).
	analyzer, err := risk.NewAnalyzer(risk.Config{})
	if err != nil {
		t.Fatal(err)
	}
	profile := PatientProfile()

	before, err := core.Generate(Surgery())
	if err != nil {
		t.Fatal(err)
	}
	beforeAssessment, err := analyzer.AnalyzeContext(context.Background(), before, profile)
	if err != nil {
		t.Fatal(err)
	}
	if got := beforeAssessment.MaxRiskFor(ActorAdministrator); got != risk.LevelMedium {
		t.Errorf("administrator risk before mitigation = %v, want medium", got)
	}
	var diagnosisFinding bool
	for _, f := range beforeAssessment.Findings {
		if f.Actor == ActorAdministrator && f.DrivingField == FieldDiagnosis && f.Datastore == StoreEHR {
			diagnosisFinding = true
			if f.Risk != risk.LevelMedium {
				t.Errorf("diagnosis finding risk = %v, want medium", f.Risk)
			}
		}
	}
	if !diagnosisFinding {
		t.Error("no administrator finding for the diagnosis on the EHR")
	}

	after, err := core.Generate(SurgeryWithPolicy(MitigatedSurgeryACL()))
	if err != nil {
		t.Fatal(err)
	}
	afterAssessment, err := analyzer.AnalyzeContext(context.Background(), after, profile)
	if err != nil {
		t.Fatal(err)
	}
	if got := afterAssessment.MaxRiskFor(ActorAdministrator); got > risk.LevelLow {
		t.Errorf("administrator risk after mitigation = %v, want at most low", got)
	}
	for _, f := range afterAssessment.Findings {
		if f.Actor == ActorAdministrator && f.DrivingField == FieldDiagnosis && f.Datastore == StoreEHR {
			t.Error("diagnosis finding should disappear after the policy change")
		}
	}

	changes := risk.Compare(beforeAssessment, afterAssessment)
	var found bool
	for _, c := range changes {
		if c.Actor == ActorAdministrator && c.Field == FieldDiagnosis {
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
		Actors: []string{ActorReceptionist, ActorDoctor, ActorNurse, ActorAdministrator, ActorResearcher},
		Datastores: map[string][]string{
			StoreEHR: {FieldName, FieldDateOfBirth, FieldMedicalIssues, FieldDiagnosis, FieldTreatment},
		},
	}
	changes := accesscontrol.Diff(SurgeryACL(), MitigatedSurgeryACL(), scope)
	if len(changes) == 0 {
		t.Fatal("mitigation produced no access changes")
	}
	for _, c := range changes {
		if c.Actor != ActorAdministrator {
			t.Errorf("mitigation changed access for %q: %s", c.Actor, c)
		}
		if c.Field == FieldName && c.Perm == accesscontrol.PermissionRead {
			t.Errorf("mitigation should keep the administrator's read access to the name field: %s", c)
		}
	}
}

func TestPatientProfile(t *testing.T) {
	p := PatientProfile()
	if err := p.Validate(); err != nil {
		t.Fatalf("profile invalid: %v", err)
	}
	if !slices.Contains(p.ConsentedServices, ServiceMedical) || slices.Contains(p.ConsentedServices, ServiceResearch) {
		t.Error("profile consent wrong")
	}
	if p.Sensitivity(FieldDiagnosis) != risk.SensitivityHigh {
		t.Error("diagnosis sensitivity should be high")
	}
	if p.Sensitivity(FieldAppointment) >= risk.SensitivityLow {
		t.Error("appointment should fall back to the default sensitivity")
	}
}

func TestSurgeryDOT(t *testing.T) {
	m := Surgery()
	out := m.DOT()
	if len(out) == 0 {
		t.Fatal("empty DOT output")
	}
	if _, err := m.ServiceDOT(ServiceMedical); err != nil {
		t.Errorf("ServiceDOT(medical): %v", err)
	}
	if _, err := m.ServiceDOT(ServiceResearch); err != nil {
		t.Errorf("ServiceDOT(research): %v", err)
	}
}

func TestMetricsModelIsValid(t *testing.T) {
	m := Metrics()
	if err := m.Validate(); err != nil {
		t.Fatalf("Metrics model invalid: %v", err)
	}
	if len(m.ServiceFlows(ServiceMetricsStudy)) != 5 {
		t.Errorf("metrics-study flows = %d, want 5", len(m.ServiceFlows(ServiceMetricsStudy)))
	}
	// The researcher may read the anonymised store but not the raw store.
	policy := m.Policy
	if !policy.Allows(ActorResearcher, StoreAnonMetrics, "weight_anon", accesscontrol.PermissionRead) {
		t.Error("researcher should read weight_anon")
	}
	if policy.Allows(ActorResearcher, StoreMetrics, FieldWeight, accesscontrol.PermissionRead) {
		t.Error("researcher must not read the raw weight")
	}
}

func TestTableIRecords(t *testing.T) {
	tbl := TableIRecords()
	if tbl.NumRows() != 6 {
		t.Fatalf("rows = %d, want 6", tbl.NumRows())
	}
	classes, err := tbl.EquivalenceClasses(context.Background(), []string{FieldAge, FieldHeight})
	if err != nil {
		t.Fatal(err)
	}
	for _, class := range classes {
		if len(class) < 2 {
			t.Errorf("Table I records should be 2-anonymous, but rows %v form a class", class)
		}
	}
	v, err := tbl.Value(0, FieldWeight)
	if err != nil || v != anonymize.Num(100) {
		t.Errorf("first weight = %v, %v", v, err)
	}
}

// RawMetricsRecords returns a plausible raw (pre-anonymisation) version of
// the Table I records, used by the examples and benchmarks that exercise the
// k-anonymiser end to end before computing value risks.
func RawMetricsRecords() *anonymize.Table {
	t := anonymize.MustTable(
		anonymize.Column{Name: FieldAge, Role: anonymize.RoleQuasiIdentifier},
		anonymize.Column{Name: FieldHeight, Role: anonymize.RoleQuasiIdentifier, Unit: "cm"},
		anonymize.Column{Name: FieldWeight, Role: anonymize.RoleSensitive, Unit: "kg"},
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
		FieldAge:    anonymize.NumericBinning{Width: 10},
		FieldHeight: anonymize.NumericBinning{Width: 20},
	}
}

func TestRawMetricsGeneraliseToTableI(t *testing.T) {
	raw := RawMetricsRecords()
	anon, err := TableIGeneralisation().Apply(raw)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	want := TableIRecords()
	if anon.NumRows() != want.NumRows() {
		t.Fatalf("row mismatch: %d vs %d", anon.NumRows(), want.NumRows())
	}
	for r := 0; r < want.NumRows(); r++ {
		for _, col := range []string{FieldAge, FieldHeight, FieldWeight} {
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
	p := ResearchPolicy()
	if err := p.Validate(); err != nil {
		t.Fatalf("policy invalid: %v", err)
	}
	if p.TargetField != FieldWeight || p.Closeness != 5 || p.Confidence != 0.9 {
		t.Errorf("policy = %+v, want weight/5kg/90%%", p)
	}
}

func TestMetricsLTSGenerates(t *testing.T) {
	p, err := core.GenerateWithOptionsContext(context.Background(), Metrics(), core.Options{FlowOrdering: core.OrderDataDriven})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(p.Warnings) != 0 {
		t.Errorf("unexpected warnings: %v", p.Warnings)
	}
	// There is a state where the researcher has read only the anonymised
	// weight, and one where they have read all three anonymised fields.
	onlyWeight := statesWhere(p, func(v core.StateVector) bool {
		return v.Has(ActorResearcher, "weight_anon") &&
			!v.Has(ActorResearcher, "age_anon") && !v.Has(ActorResearcher, "height_anon")
	})
	if len(onlyWeight) == 0 {
		t.Error("no state where the researcher has read only weight_anon")
	}
	all := statesWhere(p, func(v core.StateVector) bool {
		return v.Has(ActorResearcher, "weight_anon") &&
			v.Has(ActorResearcher, "age_anon") && v.Has(ActorResearcher, "height_anon")
	})
	if len(all) == 0 {
		t.Error("no state where the researcher has read every anonymised field")
	}
}
