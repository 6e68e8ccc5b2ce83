package casestudy

import (
	"slices"
	"testing"

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
