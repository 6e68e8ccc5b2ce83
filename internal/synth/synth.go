// Package synth generates deterministic synthetic inputs for design-time
// analysis, tests and benchmarks: health-record datasets and whole data-flow
// models of configurable size.
//
// The paper's method expects simulated data and simulated users during the
// development phase ("The process can be executed with running users of the
// system, or with simulated users in the development phase"; "simulated data
// can be used at design time"). This package is that simulation substrate;
// everything it produces is a pure function of the seed, so experiments are
// reproducible.
package synth

import (
	"fmt"
	"math/rand"

	"privascope/internal/accesscontrol"
	"privascope/internal/anonymize"
	"privascope/internal/dataflow"
	"privascope/internal/schema"
)

// HealthRecords generates a synthetic physical-attributes dataset of rows
// records (100 when rows is not positive) with age, height and weight
// columns (the shape of the paper's Table I) plus a categorical condition
// column. The same seed gives the same records.
func HealthRecords(rows int, seed int64) *anonymize.Table {
	if rows <= 0 {
		rows = 100
	}
	rng := rand.New(rand.NewSource(seed))
	conditions := []string{"none", "asthma", "diabetes", "hypertension", "arthritis"}
	t := anonymize.MustTable(
		anonymize.Column{Name: "age", Role: anonymize.RoleQuasiIdentifier},
		anonymize.Column{Name: "height", Role: anonymize.RoleQuasiIdentifier, Unit: "cm"},
		anonymize.Column{Name: "weight", Role: anonymize.RoleSensitive, Unit: "kg"},
		anonymize.Column{Name: "condition", Role: anonymize.RoleSensitive},
	)
	for i := 0; i < rows; i++ {
		age := 18 + rng.Intn(70)
		height := 150 + rng.Intn(50)
		// Weight loosely correlates with height so the dataset has realistic
		// structure for the value-risk analysis.
		weight := float64(height-100) + rng.NormFloat64()*12
		if weight < 40 {
			weight = 40
		}
		condition := conditions[rng.Intn(len(conditions))]
		t.MustAddRow(
			anonymize.Num(float64(age)),
			anonymize.Num(float64(height)),
			anonymize.Num(float64(int(weight))),
			anonymize.Cat(condition),
		)
	}
	return t
}

// ModelSpec describes the size of a synthetic data-flow model. The generated
// system has Services independent services; each service collects a subset
// of the fields from the user, stores them, has a second actor read them,
// and discloses them to a third actor, so every extraction rule of the paper
// is exercised. One extra "maintenance" actor holds read access to every
// store without taking part in any flow, which produces the potential-read
// transitions the risk analysis assesses.
type ModelSpec struct {
	// Services is the number of services; default 2.
	Services int
	// FieldsPerService is how many fields each service handles; default 3.
	FieldsPerService int
	// ExtraActors adds actors beyond the three per service and the
	// maintenance actor, enlarging the state-variable space without adding
	// flows.
	ExtraActors int
	// Seed seeds field naming only; the structure is deterministic.
	Seed int64
}

// Model generates a synthetic data-flow model with the given spec, including
// its access-control policy.
func Model(spec ModelSpec) *dataflow.Model {
	services := spec.Services
	if services <= 0 {
		services = 2
	}
	fieldsPerService := spec.FieldsPerService
	if fieldsPerService <= 0 {
		fieldsPerService = 3
	}

	b := dataflow.NewBuilder(fmt.Sprintf("synthetic-%d-services", services),
		dataflow.Actor{ID: "subject", Name: "Data Subject"})

	acl := &accesscontrol.ACL{}
	maintenance := dataflow.Actor{ID: "maintenance", Name: "Maintenance Operator"}
	b.AddActor(maintenance)

	for e := 0; e < spec.ExtraActors; e++ {
		b.AddActor(dataflow.Actor{ID: fmt.Sprintf("extra%d", e), Name: fmt.Sprintf("Extra Actor %d", e)})
	}

	for s := 0; s < services; s++ {
		svcID := fmt.Sprintf("service%d", s)
		collector := fmt.Sprintf("collector%d", s)
		processor := fmt.Sprintf("processor%d", s)
		recipient := fmt.Sprintf("recipient%d", s)
		storeID := fmt.Sprintf("store%d", s)

		fields := make([]schema.Field, fieldsPerService)
		fieldNames := make([]string, fieldsPerService)
		for f := 0; f < fieldsPerService; f++ {
			name := fmt.Sprintf("field_%d_%d", s, f)
			category := schema.CategoryStandard
			if f == 0 {
				category = schema.CategoryIdentifier
			} else if f == fieldsPerService-1 {
				category = schema.CategorySensitive
			}
			fields[f] = schema.Field{Name: name, Category: category}
			fieldNames[f] = name
		}

		b.AddActors(
			dataflow.Actor{ID: collector, Name: collector},
			dataflow.Actor{ID: processor, Name: processor},
			dataflow.Actor{ID: recipient, Name: recipient},
		)
		b.AddDatastore(schema.Datastore{ID: storeID, Name: storeID, Schema: schema.Schema{Name: storeID, Fields: fields}})
		b.AddService(dataflow.Service{ID: svcID, Name: svcID})

		b.Flow(svcID, "subject", collector, fieldNames, "collect")
		b.Flow(svcID, collector, storeID, fieldNames, "store")
		b.Flow(svcID, storeID, processor, fieldNames, "process")
		b.Flow(svcID, processor, recipient, fieldNames, "report")

		mustGrant(acl, accesscontrol.Grant{Actor: collector, Datastore: storeID,
			Fields:      []string{accesscontrol.AllFields},
			Permissions: []accesscontrol.Permission{accesscontrol.PermissionRead, accesscontrol.PermissionWrite}})
		mustGrant(acl, accesscontrol.Grant{Actor: processor, Datastore: storeID,
			Fields:      []string{accesscontrol.AllFields},
			Permissions: []accesscontrol.Permission{accesscontrol.PermissionRead}})
		mustGrant(acl, accesscontrol.Grant{Actor: maintenance.ID, Datastore: storeID,
			Fields:      []string{accesscontrol.AllFields},
			Permissions: []accesscontrol.Permission{accesscontrol.PermissionRead, accesscontrol.PermissionDelete},
			Reason:      "system maintenance"})
	}

	b.WithPolicy(acl)
	return b.MustBuild()
}

// mustGrant adds a grant whose construction cannot fail for the generator's
// fixed shapes.
func mustGrant(acl *accesscontrol.ACL, g accesscontrol.Grant) {
	if err := acl.Add(g); err != nil {
		panic(err)
	}
}

// SensitiveFieldsOf returns the generated sensitive field names of a
// synthetic model, convenient when building populations for it.
func SensitiveFieldsOf(m *dataflow.Model) []string {
	var out []string
	for _, d := range m.Datastores {
		for _, f := range d.Schema.Fields {
			if f.Category == schema.CategorySensitive {
				out = append(out, f.Name)
			}
		}
	}
	return out
}
