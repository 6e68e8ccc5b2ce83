// Package casestudy provides the doctors'-surgery healthcare service of the
// paper's Fig. 1 (case study IV-A): its data-flow model and access policy,
// the patient's profile, and the runtime events of one run of its Medical
// Service. Benchmarks and tests build on these fixtures so that the
// reproduced numbers come from a single source of truth; the inputs only
// tests use (the mitigated policy of IV-A and the whole of case study IV-B)
// are in casestudytest.
package casestudy

import (
	"privascope/internal/accesscontrol"
	"privascope/internal/core"
	"privascope/internal/dataflow"
	"privascope/internal/risk"
	"privascope/internal/schema"
	"privascope/internal/service"
)

// Identifiers of the doctors'-surgery model (Fig. 1).
const (
	// Actors.
	ActorPatient       = "patient"
	ActorReceptionist  = "receptionist"
	ActorDoctor        = "doctor"
	ActorNurse         = "nurse"
	ActorAdministrator = "administrator"
	ActorResearcher    = "researcher"

	// Datastores.
	StoreAppointments = "appointments"
	StoreEHR          = "ehr"
	StoreAnonEHR      = "anon_ehr"

	// Services.
	ServiceMedical  = "medical-service"
	ServiceResearch = "medical-research-service"

	// Fields.
	FieldName          = "name"
	FieldDateOfBirth   = "date_of_birth"
	FieldAppointment   = "appointment"
	FieldMedicalIssues = "medical_issues"
	FieldDiagnosis     = "diagnosis"
	FieldTreatment     = "treatment"
)

// SurgeryACL returns the original access-control policy of the doctors'
// surgery: clinical staff have the access the medical service needs, the
// administrator holds broad maintenance access to every store (the source of
// the unwanted-disclosure risk of case study IV-A), and the researcher may
// only read the anonymised EHR.
func SurgeryACL() *accesscontrol.ACL {
	rw := []accesscontrol.Permission{accesscontrol.PermissionRead, accesscontrol.PermissionWrite}
	r := []accesscontrol.Permission{accesscontrol.PermissionRead}
	all := []string{accesscontrol.AllFields}
	return accesscontrol.MustACL(
		accesscontrol.Grant{Actor: ActorReceptionist, Datastore: StoreAppointments, Fields: all, Permissions: rw,
			Reason: "appointment booking"},
		accesscontrol.Grant{Actor: ActorDoctor, Datastore: StoreAppointments, Fields: all, Permissions: r,
			Reason: "consultation preparation"},
		accesscontrol.Grant{Actor: ActorDoctor, Datastore: StoreEHR, Fields: all, Permissions: rw,
			Reason: "clinical record keeping"},
		accesscontrol.Grant{Actor: ActorDoctor, Datastore: StoreAnonEHR, Fields: all, Permissions: rw,
			Reason: "research extract preparation"},
		accesscontrol.Grant{Actor: ActorNurse, Datastore: StoreEHR, Fields: []string{FieldName, FieldTreatment}, Permissions: r,
			Reason: "treatment administration"},
		accesscontrol.Grant{Actor: ActorAdministrator, Datastore: StoreAppointments, Fields: all,
			Permissions: []accesscontrol.Permission{accesscontrol.PermissionRead, accesscontrol.PermissionWrite, accesscontrol.PermissionDelete},
			Reason:      "system maintenance"},
		accesscontrol.Grant{Actor: ActorAdministrator, Datastore: StoreEHR, Fields: all,
			Permissions: []accesscontrol.Permission{accesscontrol.PermissionRead, accesscontrol.PermissionWrite, accesscontrol.PermissionDelete},
			Reason:      "system maintenance"},
		accesscontrol.Grant{Actor: ActorAdministrator, Datastore: StoreAnonEHR, Fields: all,
			Permissions: []accesscontrol.Permission{accesscontrol.PermissionRead, accesscontrol.PermissionDelete},
			Reason:      "system maintenance"},
		accesscontrol.Grant{Actor: ActorResearcher, Datastore: StoreAnonEHR, Fields: all, Permissions: r,
			Reason: "medical research"},
	)
}

// Surgery builds the doctors'-surgery data-flow model of Fig. 1 with the
// original access-control policy attached.
func Surgery() *dataflow.Model {
	return SurgeryWithPolicy(SurgeryACL())
}

// SurgeryWithPolicy builds the doctors'-surgery model with a caller-supplied
// access-control policy, so mitigations can be explored.
func SurgeryWithPolicy(policy accesscontrol.Policy) *dataflow.Model {
	appointmentsSchema := schema.MustSchema("appointments",
		schema.Field{Name: FieldName, Category: schema.CategoryIdentifier, Description: "patient full name"},
		schema.Field{Name: FieldDateOfBirth, Category: schema.CategoryQuasiIdentifier, Description: "patient date of birth"},
		schema.Field{Name: FieldAppointment, Category: schema.CategoryStandard, Description: "appointment slot"},
	)
	ehrSchema := schema.MustSchema("ehr",
		schema.Field{Name: FieldName, Category: schema.CategoryIdentifier},
		schema.Field{Name: FieldDateOfBirth, Category: schema.CategoryQuasiIdentifier},
		schema.Field{Name: FieldMedicalIssues, Category: schema.CategorySensitive, Description: "presented medical issues"},
		schema.Field{Name: FieldDiagnosis, Category: schema.CategorySensitive, Description: "clinical diagnosis"},
		schema.Field{Name: FieldTreatment, Category: schema.CategorySensitive, Description: "treatment information"},
	)
	anonEHRSchema := schema.MustSchema("anon_ehr",
		schema.Field{Name: schema.AnonName(FieldDateOfBirth), Category: schema.CategoryQuasiIdentifier, Pseudonymised: true},
		schema.Field{Name: schema.AnonName(FieldMedicalIssues), Category: schema.CategorySensitive, Pseudonymised: true},
		schema.Field{Name: schema.AnonName(FieldDiagnosis), Category: schema.CategorySensitive, Pseudonymised: true},
		schema.Field{Name: schema.AnonName(FieldTreatment), Category: schema.CategorySensitive, Pseudonymised: true},
	)

	b := dataflow.NewBuilder("doctors-surgery", dataflow.Actor{ID: ActorPatient, Name: "Patient",
		Description: "the data subject whose privacy the model tracks"})
	b.AddActors(
		dataflow.Actor{ID: ActorReceptionist, Name: "Receptionist", Description: "books appointments"},
		dataflow.Actor{ID: ActorDoctor, Name: "Doctor", Description: "conducts consultations and maintains the EHR"},
		dataflow.Actor{ID: ActorNurse, Name: "Nurse", Description: "administers prescribed treatment"},
		dataflow.Actor{ID: ActorAdministrator, Name: "Administrator", Description: "maintains the IT systems and prepares research extracts"},
		dataflow.Actor{ID: ActorResearcher, Name: "Researcher", Description: "performs medical research on anonymised records"},
	)
	b.AddDatastore(schema.Datastore{ID: StoreAppointments, Name: "Appointments", Schema: appointmentsSchema})
	b.AddDatastore(schema.Datastore{ID: StoreEHR, Name: "Electronic Health Records", Schema: ehrSchema})
	b.AddDatastore(schema.Datastore{ID: StoreAnonEHR, Name: "Anonymised EHR", Schema: anonEHRSchema, Anonymised: true})
	b.AddService(dataflow.Service{ID: ServiceMedical, Name: "Medical Service",
		Purpose: "provide medical care to the patient"})
	b.AddService(dataflow.Service{ID: ServiceResearch, Name: "Medical Research Service",
		Purpose: "support medical research on anonymised health records"})

	// Medical Service (Fig. 1, left): book an appointment, consult, record,
	// and administer treatment.
	b.Flow(ServiceMedical, ActorPatient, ActorReceptionist,
		[]string{FieldName, FieldDateOfBirth}, "book appointment")
	b.AuthoredFlow(ServiceMedical, ActorReceptionist, StoreAppointments,
		[]string{FieldName, FieldDateOfBirth, FieldAppointment}, []string{FieldAppointment}, "schedule appointment")
	b.Flow(ServiceMedical, StoreAppointments, ActorDoctor,
		[]string{FieldName, FieldDateOfBirth, FieldAppointment}, "prepare consultation")
	b.Flow(ServiceMedical, ActorPatient, ActorDoctor,
		[]string{FieldMedicalIssues}, "consultation")
	b.AuthoredFlow(ServiceMedical, ActorDoctor, StoreEHR,
		[]string{FieldName, FieldDateOfBirth, FieldMedicalIssues, FieldDiagnosis, FieldTreatment},
		[]string{FieldDiagnosis, FieldTreatment}, "record consultation")
	b.Flow(ServiceMedical, StoreEHR, ActorNurse,
		[]string{FieldName, FieldTreatment}, "administer treatment")

	// Medical Research Service (Fig. 1, right): the doctor (as clinical data
	// custodian) extracts and pseudonymises the records, and the researcher
	// analyses the anonymised EHR. The administrator takes part in no
	// service flow — their access to the datastores exists purely for system
	// maintenance, which is exactly the unwanted-disclosure risk of case
	// study IV-A.
	b.Flow(ServiceResearch, StoreEHR, ActorDoctor,
		[]string{FieldDateOfBirth, FieldMedicalIssues, FieldDiagnosis, FieldTreatment}, "prepare research extract")
	b.Flow(ServiceResearch, ActorDoctor, StoreAnonEHR,
		[]string{FieldDateOfBirth, FieldMedicalIssues, FieldDiagnosis, FieldTreatment}, "pseudonymise research data")
	b.Flow(ServiceResearch, StoreAnonEHR, ActorResearcher,
		[]string{schema.AnonName(FieldDateOfBirth), schema.AnonName(FieldMedicalIssues),
			schema.AnonName(FieldDiagnosis), schema.AnonName(FieldTreatment)}, "medical research")

	b.WithPolicy(policy)
	return b.MustBuild()
}

// PatientProfile returns the user profile of case study IV-A: the user agreed
// to use the Medical Service but not the Medical Research Service, and is
// highly sensitive about the Diagnosis field.
func PatientProfile() risk.UserProfile {
	return risk.UserProfile{
		ID:                "patient-1",
		ConsentedServices: []string{ServiceMedical},
		Sensitivities: map[string]float64{
			FieldDiagnosis:                      risk.SensitivityHigh,
			FieldMedicalIssues:                  risk.SensitivityMedium,
			FieldTreatment:                      risk.SensitivityMedium,
			schema.AnonName(FieldDiagnosis):     risk.SensitivityMedium,
			schema.AnonName(FieldMedicalIssues): risk.SensitivityLow,
			schema.AnonName(FieldTreatment):     risk.SensitivityLow,
			schema.AnonName(FieldDateOfBirth):   risk.SensitivityLow,
		},
		DefaultSensitivity: 0.1,
	}
}

// MedicalServiceEvents returns the runtime events of one full execution of
// the Medical Service for the given user, in declared flow order. Each event
// matches a declared transition of the generated privacy LTS without raising
// alerts, so the sequence doubles as the runtime monitor's hot-path fixture
// (tests, benchmarks and the privaserve golden trace all share it).
func MedicalServiceEvents(userID string) []service.Event {
	return []service.Event{
		{Actor: ActorReceptionist, Action: core.ActionCollect, UserID: userID,
			Fields: []string{FieldName, FieldDateOfBirth}},
		{Actor: ActorReceptionist, Action: core.ActionCreate, Datastore: StoreAppointments, UserID: userID,
			Fields: []string{FieldName, FieldDateOfBirth, FieldAppointment}},
		{Actor: ActorDoctor, Action: core.ActionRead, Datastore: StoreAppointments, UserID: userID,
			Fields: []string{FieldName, FieldDateOfBirth, FieldAppointment}},
		{Actor: ActorDoctor, Action: core.ActionCollect, UserID: userID,
			Fields: []string{FieldMedicalIssues}},
		{Actor: ActorDoctor, Action: core.ActionCreate, Datastore: StoreEHR, UserID: userID,
			Fields: []string{FieldName, FieldDateOfBirth, FieldMedicalIssues, FieldDiagnosis, FieldTreatment}},
		{Actor: ActorNurse, Action: core.ActionRead, Datastore: StoreEHR, UserID: userID,
			Fields: []string{FieldName, FieldTreatment}},
	}
}
