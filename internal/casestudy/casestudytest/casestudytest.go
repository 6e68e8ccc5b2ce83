// Package casestudytest holds the case-study inputs that only tests and the
// facade's Example functions use: the mitigated access policy of case study
// IV-A, and the physical-attributes research model, violation policy and
// 2-anonymised records of case study IV-B (the paper's Table I and Fig. 4).
// No production code imports it.
package casestudytest

import (
	"privascope/internal/accesscontrol"
	"privascope/internal/anonymize"
	"privascope/internal/casestudy"
	"privascope/internal/dataflow"
	"privascope/internal/pseudorisk"
	"privascope/internal/schema"
)

// Identifiers of the physical-attributes research model (case study IV-B).
const (
	ActorParticipant = "participant"
	ActorClinician   = "clinician"
	ActorDataManager = "data_manager"
	// The researcher is casestudy.ActorResearcher, shared with the surgery
	// model.

	StoreMetrics     = "health_metrics"
	StoreAnonMetrics = "anon_metrics"

	ServiceHealthCheck  = "health-check"
	ServiceMetricsStudy = "metrics-study"

	FieldAge    = "age"
	FieldHeight = "height"
	FieldWeight = "weight"
)

// MetricsACL returns the access-control policy of the physical-attributes
// scenario: the clinician maintains the raw metrics store, the data manager
// reads it to produce the anonymised store, and the researcher can only read
// the anonymised store — they have "access to this data but ... not ... to
// the original data".
func MetricsACL() *accesscontrol.ACL {
	rw := []accesscontrol.Permission{accesscontrol.PermissionRead, accesscontrol.PermissionWrite}
	r := []accesscontrol.Permission{accesscontrol.PermissionRead}
	all := []string{accesscontrol.AllFields}
	return accesscontrol.MustACL(
		accesscontrol.Grant{Actor: ActorClinician, Datastore: StoreMetrics, Fields: all, Permissions: rw,
			Reason: "health check records"},
		accesscontrol.Grant{Actor: ActorDataManager, Datastore: StoreMetrics, Fields: all, Permissions: r,
			Reason: "prepare anonymised study data"},
		accesscontrol.Grant{Actor: ActorDataManager, Datastore: StoreAnonMetrics, Fields: all, Permissions: rw,
			Reason: "prepare anonymised study data"},
		accesscontrol.Grant{Actor: casestudy.ActorResearcher, Datastore: StoreAnonMetrics, Fields: all, Permissions: r,
			Reason: "study analysis"},
	)
}

// Metrics builds the data-flow model of case study IV-B: physical attributes
// are collected during a health check, 2-anonymised by a data manager, and
// the anonymised fields are read one by one by a researcher. Reading the
// anonymised fields in different orders produces LTS states in which the
// researcher has seen different subsets of the quasi-identifiers — exactly
// the progression of Table I.
func Metrics() *dataflow.Model {
	return MetricsWithPolicy(MetricsACL())
}

// MetricsWithPolicy builds the physical-attributes model with a
// caller-supplied policy.
func MetricsWithPolicy(policy accesscontrol.Policy) *dataflow.Model {
	metricsSchema := schema.MustSchema("health_metrics",
		schema.Field{Name: FieldAge, Category: schema.CategoryQuasiIdentifier, Description: "age in years"},
		schema.Field{Name: FieldHeight, Category: schema.CategoryQuasiIdentifier, Description: "height in cm"},
		schema.Field{Name: FieldWeight, Category: schema.CategorySensitive, Description: "weight in kg"},
	)
	anonSchema := schema.MustSchema("anon_metrics",
		schema.Field{Name: schema.AnonName(FieldAge), Category: schema.CategoryQuasiIdentifier, Pseudonymised: true},
		schema.Field{Name: schema.AnonName(FieldHeight), Category: schema.CategoryQuasiIdentifier, Pseudonymised: true},
		schema.Field{Name: schema.AnonName(FieldWeight), Category: schema.CategorySensitive, Pseudonymised: true},
	)

	b := dataflow.NewBuilder("physical-attributes-study", dataflow.Actor{ID: ActorParticipant, Name: "Participant"})
	b.AddActors(
		dataflow.Actor{ID: ActorClinician, Name: "Clinician", Description: "records physical attributes during a health check"},
		dataflow.Actor{ID: ActorDataManager, Name: "Data Manager", Description: "produces the 2-anonymised study dataset"},
		dataflow.Actor{ID: casestudy.ActorResearcher, Name: "Researcher", Description: "analyses the anonymised dataset"},
	)
	b.AddDatastore(schema.Datastore{ID: StoreMetrics, Name: "Health Metrics", Schema: metricsSchema})
	b.AddDatastore(schema.Datastore{ID: StoreAnonMetrics, Name: "Anonymised Health Metrics", Schema: anonSchema, Anonymised: true})
	b.AddService(dataflow.Service{ID: ServiceHealthCheck, Name: "Health Check",
		Purpose: "collect physical attributes"})
	b.AddService(dataflow.Service{ID: ServiceMetricsStudy, Name: "Metrics Study",
		Purpose: "statistical research on anonymised physical attributes"})

	b.Flow(ServiceHealthCheck, ActorParticipant, ActorClinician,
		[]string{FieldAge, FieldHeight, FieldWeight}, "health check")
	b.Flow(ServiceHealthCheck, ActorClinician, StoreMetrics,
		[]string{FieldAge, FieldHeight, FieldWeight}, "record metrics")

	b.Flow(ServiceMetricsStudy, StoreMetrics, ActorDataManager,
		[]string{FieldAge, FieldHeight, FieldWeight}, "prepare study extract")
	b.Flow(ServiceMetricsStudy, ActorDataManager, StoreAnonMetrics,
		[]string{FieldAge, FieldHeight, FieldWeight}, "2-anonymise")
	// The researcher reads the anonymised fields one at a time; under
	// data-driven ordering these reads interleave freely, producing states
	// where different subsets of the quasi-identifiers have been seen.
	b.Flow(ServiceMetricsStudy, StoreAnonMetrics, casestudy.ActorResearcher,
		[]string{schema.AnonName(FieldWeight)}, "analyse weights")
	b.Flow(ServiceMetricsStudy, StoreAnonMetrics, casestudy.ActorResearcher,
		[]string{schema.AnonName(FieldHeight)}, "analyse heights")
	b.Flow(ServiceMetricsStudy, StoreAnonMetrics, casestudy.ActorResearcher,
		[]string{schema.AnonName(FieldAge)}, "analyse ages")

	b.WithPolicy(policy)
	return b.MustBuild()
}

// ResearchPolicy returns the violation policy of case study IV-B: "the
// researcher being able to predict an individual's weight to within 5kg with
// at least 90% confidence".
func ResearchPolicy() pseudorisk.Policy {
	return pseudorisk.Policy{
		TargetField: FieldWeight,
		Closeness:   5,
		Confidence:  0.9,
		Description: "the researcher must not predict an individual's weight to within 5 kg with at least 90% confidence",
	}
}

// TableIRecords returns the six 2-anonymised sample records of the paper's
// Table I: age in 10-year bins, height in 20-cm bins, weight exact.
func TableIRecords() *anonymize.Table {
	t := anonymize.MustTable(
		anonymize.Column{Name: FieldAge, Role: anonymize.RoleQuasiIdentifier},
		anonymize.Column{Name: FieldHeight, Role: anonymize.RoleQuasiIdentifier, Unit: "cm"},
		anonymize.Column{Name: FieldWeight, Role: anonymize.RoleSensitive, Unit: "kg"},
	)
	rows := []struct {
		age, height anonymize.Value
		weight      float64
	}{
		{anonymize.Interval(30, 40), anonymize.Interval(180, 200), 100},
		{anonymize.Interval(30, 40), anonymize.Interval(180, 200), 102},
		{anonymize.Interval(20, 30), anonymize.Interval(180, 200), 110},
		{anonymize.Interval(20, 30), anonymize.Interval(180, 200), 111},
		{anonymize.Interval(20, 30), anonymize.Interval(160, 180), 80},
		{anonymize.Interval(20, 30), anonymize.Interval(160, 180), 110},
	}
	for _, r := range rows {
		t.MustAddRow(r.age, r.height, anonymize.Num(r.weight))
	}
	return t
}

// MitigatedSurgeryACL returns the access policy after the mitigation of case
// study IV-A: the administrator's access to the EHR is restricted to the
// name field needed for record maintenance, so the sensitive clinical fields
// are no longer exposed ("The access policies were changed accordingly and
// the risk level was reduced to Low for this event").
func MitigatedSurgeryACL() *accesscontrol.ACL {
	return casestudy.SurgeryACL().Restrict(casestudy.ActorAdministrator, casestudy.StoreEHR, []string{casestudy.FieldName})
}
