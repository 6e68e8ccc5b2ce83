// Quickstart: model a tiny data service, generate its formal privacy model,
// and identify the unwanted-disclosure risks for one user.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"privascope"
)

func main() {
	// 1. Describe the system as a data-flow model: who handles which
	//    personal data, where it is stored, and who may access the stores.
	acl, err := privascope.NewACL(
		privascope.Grant{
			Actor: "doctor", Datastore: "ehr",
			Fields:      []string{privascope.AllFields},
			Permissions: []privascope.Permission{privascope.PermissionRead, privascope.PermissionWrite},
			Reason:      "clinical care",
		},
		privascope.Grant{
			Actor: "it_admin", Datastore: "ehr",
			Fields:      []string{privascope.AllFields},
			Permissions: []privascope.Permission{privascope.PermissionRead},
			Reason:      "system maintenance",
		},
	)
	if err != nil {
		log.Fatal(err)
	}

	builder := privascope.NewModelBuilder("quickstart-clinic",
		privascope.Actor{ID: "patient", Name: "Patient"})
	builder.AddActors(
		privascope.Actor{ID: "doctor", Name: "Doctor"},
		privascope.Actor{ID: "it_admin", Name: "IT Administrator"},
	)
	builder.AddDatastore(privascope.Datastore{
		ID: "ehr", Name: "Electronic Health Record",
		Schema: privascope.Schema{Name: "ehr", Fields: []privascope.Field{
			{Name: "name", Category: privascope.CategoryIdentifier},
			{Name: "diagnosis", Category: privascope.CategorySensitive},
		}},
	})
	builder.AddService(privascope.Service{ID: "care", Name: "Care Service",
		Purpose: "diagnose and treat the patient"})
	builder.Flow("care", "patient", "doctor", []string{"name", "diagnosis"}, "consultation")
	builder.Flow("care", "doctor", "ehr", []string{"name", "diagnosis"}, "record consultation")
	builder.WithPolicy(acl)

	model, err := builder.Build()
	if err != nil {
		log.Fatal(err)
	}

	// 2. Describe the user: which services they agreed to and how sensitive
	//    each field is to them.
	patient := privascope.UserProfile{
		ID:                 "alice",
		ConsentedServices:  []string{"care"},
		Sensitivities:      map[string]float64{"diagnosis": privascope.SensitivityHigh},
		DefaultSensitivity: 0.1,
	}

	// 3. Run the pipeline: generate the privacy LTS and analyse the risk of
	//    unwanted disclosure.
	result, err := privascope.Assess(model, patient)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println(result.Report.Render())
	fmt.Printf("Overall risk for %s: %s\n", patient.ID, result.Assessment.OverallRisk)
	for _, finding := range result.Assessment.FindingsAtLeast(privascope.RiskMedium) {
		fmt.Printf("  -> %s\n     mitigation: %s\n", finding.Explanation, finding.Mitigation)
	}
}
