package privascope_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"privascope"
	"privascope/internal/casestudy"
	"privascope/internal/casestudy/casestudytest"
)

// Example is the quickstart: describe a tiny clinic as a data-flow model,
// generate its formal privacy model, and identify the unwanted-disclosure
// risks for one patient.
func Example() {
	// 1. Describe the system (clinicModel, below): who handles which
	//    personal data, where it is stored, and who may access the stores.
	model, err := clinicModel()
	if err != nil {
		fmt.Println("error:", err)
		return
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
		fmt.Println("error:", err)
		return
	}

	fmt.Println(trimmed(result.Report.Render()))
	fmt.Println()
	fmt.Printf("Overall risk for %s: %s\n", patient.ID, result.Assessment.OverallRisk)
	for _, finding := range result.Assessment.Findings {
		if finding.Risk >= privascope.RiskMedium {
			fmt.Printf("  -> %s\n     mitigation: %s\n", finding.Explanation, finding.Mitigation)
		}
	}
	// Output:
	// Privacy risk assessment: quickstart-clinic
	// ==========================================
	//
	// Model size
	// ----------
	// metric                      value
	// --------------------------  -----
	// actors                      2
	// fields                      2
	// state variables per state   8
	// states                      4
	// transitions                 3
	// potential-read transitions  1
	//
	// Transition labels
	// -----------------
	// transition label                                                count
	// --------------------------------------------------------------  -----
	// ?read(diagnosis, name) by it_admin on ehr                       1
	// collect(diagnosis, name) by doctor [consultation]               1
	// create(diagnosis, name) by doctor on ehr [record consultation]  1
	//
	// Consent
	// -------
	// Consented services: care
	// Allowed actors: doctor
	// Non-allowed actors: it_admin
	//
	// Findings
	// --------
	// Overall risk: medium
	// risk    actor     action  datastore  driving field  impact       likelihood  explanation
	// ------  --------  ------  ---------  -------------  -----------  ----------  ---------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------
	// medium  it_admin  create  ehr        diagnosis      0.90 (high)  0.15 (low)  create by "doctor" in service "care" exposes diagnosis, name to non-allowed actor "it_admin"; most sensitive field "diagnosis" (impact 0.90/high, likelihood 0.15/low) => risk medium
	// medium  it_admin  read    ehr        diagnosis      0.90 (high)  0.15 (low)  non-allowed actor "it_admin" may read diagnosis, name from datastore "ehr" although no declared flow requires it; most sensitive field "diagnosis" (impact 0.90/high, likelihood 0.15/low) => risk medium
	//
	// Suggested mitigations
	// ---------------------
	// actor     risk    suggested mitigation
	// --------  ------  ----------------------------------------------------------------------------------------------------------------------------------------
	// it_admin  medium  remove or restrict "it_admin"'s read access to ehr.diagnosis (e.g. accesscontrol.ACL.Restrict), or pseudonymise the field before storage
	//
	// Overall risk for alice: medium
	//   -> create by "doctor" in service "care" exposes diagnosis, name to non-allowed actor "it_admin"; most sensitive field "diagnosis" (impact 0.90/high, likelihood 0.15/low) => risk medium
	//      mitigation: remove or restrict "it_admin"'s read access to ehr.diagnosis (e.g. accesscontrol.ACL.Restrict), or pseudonymise the field before storage
	//   -> non-allowed actor "it_admin" may read diagnosis, name from datastore "ehr" although no declared flow requires it; most sensitive field "diagnosis" (impact 0.90/high, likelihood 0.15/low) => risk medium
	//      mitigation: remove or restrict "it_admin"'s read access to ehr.diagnosis (e.g. accesscontrol.ACL.Restrict), or pseudonymise the field before storage
}

// ExampleEngine shows the generate-once/analyse-many session API. One
// long-lived Engine serves concurrent assessment requests: the privacy LTS
// is generated exactly once per model (cached by content fingerprint, even
// across independently built copies of the model), and risk analyses are
// shared across same-shaped user profiles.
func ExampleEngine() {
	ctx := context.Background()
	engine, err := privascope.NewEngine(privascope.EngineOptions{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}

	// Serve 100 concurrent assessment "requests". Each request builds its
	// own copy of the model, as a server decoding the same model document
	// per request would, yet the engine runs one generation: concurrent
	// first requests wait for the one in flight instead of duplicating it.
	const requests = 100
	var wg sync.WaitGroup
	risks := make([]privascope.RiskLevel, requests)
	errs := make([]error, requests)
	for i := range requests {
		wg.Add(1)
		go func() {
			defer wg.Done()
			model, err := clinicModel()
			if err != nil {
				errs[i] = err
				return
			}
			profile := privascope.UserProfile{
				ID:                 fmt.Sprintf("user-%03d", i),
				ConsentedServices:  []string{"care"},
				Sensitivities:      map[string]float64{"diagnosis": privascope.SensitivityHigh},
				DefaultSensitivity: 0.1,
			}
			result, err := engine.Assess(ctx, model, profile)
			if err != nil {
				errs[i] = err
				return
			}
			risks[i] = result.Assessment.OverallRisk
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			fmt.Println("error:", err)
			return
		}
	}

	fmt.Printf("assessed %d users; overall risk of the first: %s\n", requests, risks[0])
	fmt.Printf("LTS generations actually run: %d (one model, one generation)\n", engine.Generations())
	modelHits, modelMisses := engine.ModelCacheStats()
	fmt.Printf("model cache: %d hits / %d misses\n", modelHits, modelMisses)
	assessHits, assessMisses := engine.AssessmentCacheStats()
	fmt.Printf("assessment cache: %d hits / %d misses (all %d users share one profile shape)\n",
		assessHits, assessMisses, requests)

	// The same engine runs population scans against the cached model
	// without another generation.
	model, err := clinicModel()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	profiles := make([]privascope.UserProfile, 50)
	for i := range profiles {
		profiles[i] = privascope.UserProfile{
			ID: fmt.Sprintf("sim-%03d", i), ConsentedServices: []string{"care"}, DefaultSensitivity: 0.5,
		}
	}
	population, err := engine.AssessPopulation(ctx, model, profiles)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("population: %d users, %d at risk, %d distinct shapes analysed\n",
		len(population.Users), population.UsersAtRisk, population.DistinctShapes)
	fmt.Printf("LTS generations after population scan: %d\n", engine.Generations())
	// Output:
	// assessed 100 users; overall risk of the first: medium
	// LTS generations actually run: 1 (one model, one generation)
	// model cache: 99 hits / 1 misses
	// assessment cache: 99 hits / 1 misses (all 100 users share one profile shape)
	// population: 50 users, 0 at risk, 1 distinct shapes analysed
	// LTS generations after population scan: 1
}

// ExampleAssess runs the paper's case study IV-A end to end. The patient of
// the doctors' surgery (Fig. 1) consents only to the Medical Service and is
// highly sensitive about their diagnosis; the administrator's maintenance
// access to the EHR surfaces as a medium risk, and restricting that access
// lowers it, as in the paper's narrative.
func ExampleAssess() {
	model := casestudy.Surgery()
	profile := casestudy.PatientProfile()

	fmt.Printf("System: %s (%d actors, %d datastores, %d services)\n",
		model.Name, len(model.Actors), len(model.Datastores), len(model.Services))
	fmt.Printf("User %q consents to: %v; most sensitive field: %s\n",
		profile.ID, profile.ConsentedServices, casestudy.FieldDiagnosis)
	fmt.Println()

	// Figs. 2/3: the generated privacy LTS, then the original policy's risks.
	before, err := privascope.Assess(model, profile)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	stats := before.PrivacyModel.Stats()
	fmt.Printf("generated privacy LTS: %d states, %d transitions, %d state variables per state\n",
		stats.States, stats.Transitions, stats.StateVariables)
	fmt.Println()
	fmt.Println(trimmed(privascope.RenderAssessment(before.Assessment)))
	fmt.Println()

	// The mitigation of case study IV-A.
	after, err := privascope.Assess(
		casestudy.SurgeryWithPolicy(casestudytest.MitigatedSurgeryACL()), profile)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("Mitigation: restrict the administrator's EHR access to the name field.")
	fmt.Printf("Administrator risk: %s -> %s\n",
		before.Assessment.MaxRiskFor(casestudy.ActorAdministrator),
		after.Assessment.MaxRiskFor(casestudy.ActorAdministrator))
	fmt.Println()
	changes := privascope.CompareAssessments(before.Assessment, after.Assessment)
	fmt.Println(trimmed(privascope.RenderRiskComparison(changes)))
	// Output:
	// System: doctors-surgery (5 actors, 3 datastores, 2 services)
	// User "patient-1" consents to: [medical-service]; most sensitive field: diagnosis
	//
	// generated privacy LTS: 47 states, 49 transitions, 100 state variables per state
	//
	// Unwanted-disclosure risk assessment for patient-1
	// =================================================
	//
	// Consent
	// -------
	// Consented services: medical-service
	// Allowed actors: doctor, nurse, receptionist
	// Non-allowed actors: administrator, researcher
	//
	// Findings
	// --------
	// Overall risk: medium
	// risk    actor          action  datastore     driving field   impact         likelihood     explanation
	// ------  -------------  ------  ------------  --------------  -------------  -------------  -------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------
	// medium  administrator  create  ehr           diagnosis       0.90 (high)    0.15 (low)     create by "doctor" in service "medical-service" exposes date_of_birth, diagnosis, medical_issues, name, treatment to non-allowed actor "administrator"; most sensitive field "diagnosis" (impact 0.90/high, likelihood 0.15/low) => risk medium
	// medium  administrator  read    ehr           diagnosis       0.90 (high)    0.15 (low)     non-allowed actor "administrator" may read date_of_birth, diagnosis, medical_issues, name, treatment from datastore "ehr" although no declared flow requires it; most sensitive field "diagnosis" (impact 0.90/high, likelihood 0.15/low) => risk medium
	// medium  administrator  read    ehr           diagnosis       0.90 (high)    0.15 (low)     non-allowed actor "administrator" may read date_of_birth, diagnosis, medical_issues, name, treatment from datastore "ehr" although no declared flow requires it; most sensitive field "diagnosis" (impact 0.90/high, likelihood 0.15/low) => risk medium
	// medium  administrator  read    ehr           diagnosis       0.90 (high)    0.15 (low)     non-allowed actor "administrator" may read date_of_birth, diagnosis, medical_issues, name, treatment from datastore "ehr" although no declared flow requires it; most sensitive field "diagnosis" (impact 0.90/high, likelihood 0.15/low) => risk medium
	// medium  administrator  read    ehr           diagnosis       0.90 (high)    0.15 (low)     non-allowed actor "administrator" may read date_of_birth, diagnosis, medical_issues, name, treatment from datastore "ehr" although no declared flow requires it; most sensitive field "diagnosis" (impact 0.90/high, likelihood 0.15/low) => risk medium
	// medium  administrator  read    ehr           diagnosis       0.90 (high)    0.15 (low)     non-allowed actor "administrator" may read date_of_birth, diagnosis, medical_issues, name, treatment from datastore "ehr" although no declared flow requires it; most sensitive field "diagnosis" (impact 0.90/high, likelihood 0.15/low) => risk medium
	// medium  administrator  read    ehr           diagnosis       0.90 (high)    0.15 (low)     non-allowed actor "administrator" may read date_of_birth, diagnosis, medical_issues, name, treatment from datastore "ehr" although no declared flow requires it; most sensitive field "diagnosis" (impact 0.90/high, likelihood 0.15/low) => risk medium
	// medium  administrator  read    ehr           diagnosis       0.90 (high)    0.15 (low)     non-allowed actor "administrator" may read date_of_birth, diagnosis, medical_issues, name, treatment from datastore "ehr" although no declared flow requires it; most sensitive field "diagnosis" (impact 0.90/high, likelihood 0.15/low) => risk medium
	// medium  administrator  read    ehr           diagnosis       0.90 (high)    0.15 (low)     non-allowed actor "administrator" may read date_of_birth, diagnosis, medical_issues, name, treatment from datastore "ehr" although no declared flow requires it; most sensitive field "diagnosis" (impact 0.90/high, likelihood 0.15/low) => risk medium
	// medium  researcher     read    anon_ehr      diagnosis_anon  0.50 (medium)  0.25 (medium)  flow of non-consented service "medical-research-service" lets actor "researcher" read date_of_birth_anon, diagnosis_anon, medical_issues_anon, treatment_anon; most sensitive field "diagnosis_anon" (impact 0.50/medium, likelihood 0.25/medium) => risk medium
	// medium  researcher     read    anon_ehr      diagnosis_anon  0.50 (medium)  0.25 (medium)  flow of non-consented service "medical-research-service" lets actor "researcher" read date_of_birth_anon, diagnosis_anon, medical_issues_anon, treatment_anon; most sensitive field "diagnosis_anon" (impact 0.50/medium, likelihood 0.25/medium) => risk medium
	// low     administrator  anon    anon_ehr      diagnosis_anon  0.50 (medium)  0.15 (low)     anon by "doctor" in service "medical-research-service" exposes date_of_birth_anon, diagnosis_anon, medical_issues_anon, treatment_anon to non-allowed actor "administrator"; most sensitive field "diagnosis_anon" (impact 0.50/medium, likelihood 0.15/low) => risk low
	// low     administrator  read    anon_ehr      diagnosis_anon  0.50 (medium)  0.15 (low)     non-allowed actor "administrator" may read date_of_birth_anon, diagnosis_anon, medical_issues_anon, treatment_anon from datastore "anon_ehr" although no declared flow requires it; most sensitive field "diagnosis_anon" (impact 0.50/medium, likelihood 0.15/low) => risk low
	// low     administrator  anon    anon_ehr      diagnosis_anon  0.50 (medium)  0.15 (low)     anon by "doctor" in service "medical-research-service" exposes date_of_birth_anon, diagnosis_anon, medical_issues_anon, treatment_anon to non-allowed actor "administrator"; most sensitive field "diagnosis_anon" (impact 0.50/medium, likelihood 0.15/low) => risk low
	// low     administrator  read    anon_ehr      diagnosis_anon  0.50 (medium)  0.15 (low)     non-allowed actor "administrator" may read date_of_birth_anon, diagnosis_anon, medical_issues_anon, treatment_anon from datastore "anon_ehr" although no declared flow requires it; most sensitive field "diagnosis_anon" (impact 0.50/medium, likelihood 0.15/low) => risk low
	// low     administrator  read    anon_ehr      diagnosis_anon  0.50 (medium)  0.15 (low)     non-allowed actor "administrator" may read date_of_birth_anon, diagnosis_anon, medical_issues_anon, treatment_anon from datastore "anon_ehr" although no declared flow requires it; most sensitive field "diagnosis_anon" (impact 0.50/medium, likelihood 0.15/low) => risk low
	// low     administrator  read    anon_ehr      diagnosis_anon  0.50 (medium)  0.15 (low)     non-allowed actor "administrator" may read date_of_birth_anon, diagnosis_anon, medical_issues_anon, treatment_anon from datastore "anon_ehr" although no declared flow requires it; most sensitive field "diagnosis_anon" (impact 0.50/medium, likelihood 0.15/low) => risk low
	// low     researcher     anon    anon_ehr      diagnosis_anon  0.50 (medium)  0.15 (low)     anon by "doctor" in service "medical-research-service" exposes date_of_birth_anon, diagnosis_anon, medical_issues_anon, treatment_anon to non-allowed actor "researcher"; most sensitive field "diagnosis_anon" (impact 0.50/medium, likelihood 0.15/low) => risk low
	// low     researcher     read    anon_ehr      diagnosis_anon  0.50 (medium)  0.15 (low)     non-allowed actor "researcher" may read date_of_birth_anon, diagnosis_anon, medical_issues_anon, treatment_anon from datastore "anon_ehr" although no declared flow requires it; most sensitive field "diagnosis_anon" (impact 0.50/medium, likelihood 0.15/low) => risk low
	// low     researcher     anon    anon_ehr      diagnosis_anon  0.50 (medium)  0.15 (low)     anon by "doctor" in service "medical-research-service" exposes date_of_birth_anon, diagnosis_anon, medical_issues_anon, treatment_anon to non-allowed actor "researcher"; most sensitive field "diagnosis_anon" (impact 0.50/medium, likelihood 0.15/low) => risk low
	// low     researcher     read    anon_ehr      diagnosis_anon  0.50 (medium)  0.15 (low)     non-allowed actor "researcher" may read date_of_birth_anon, diagnosis_anon, medical_issues_anon, treatment_anon from datastore "anon_ehr" although no declared flow requires it; most sensitive field "diagnosis_anon" (impact 0.50/medium, likelihood 0.15/low) => risk low
	// low     administrator  create  appointments  appointment     0.10 (low)     0.15 (low)     create by "receptionist" in service "medical-service" exposes appointment, date_of_birth, name to non-allowed actor "administrator"; most sensitive field "appointment" (impact 0.10/low, likelihood 0.15/low) => risk low
	// low     administrator  read    appointments  appointment     0.10 (low)     0.15 (low)     non-allowed actor "administrator" may read appointment, date_of_birth, name from datastore "appointments" although no declared flow requires it; most sensitive field "appointment" (impact 0.10/low, likelihood 0.15/low) => risk low
	// low     administrator  read    appointments  appointment     0.10 (low)     0.15 (low)     non-allowed actor "administrator" may read appointment, date_of_birth, name from datastore "appointments" although no declared flow requires it; most sensitive field "appointment" (impact 0.10/low, likelihood 0.15/low) => risk low
	// low     administrator  read    appointments  appointment     0.10 (low)     0.15 (low)     non-allowed actor "administrator" may read appointment, date_of_birth, name from datastore "appointments" although no declared flow requires it; most sensitive field "appointment" (impact 0.10/low, likelihood 0.15/low) => risk low
	// low     administrator  read    appointments  appointment     0.10 (low)     0.15 (low)     non-allowed actor "administrator" may read appointment, date_of_birth, name from datastore "appointments" although no declared flow requires it; most sensitive field "appointment" (impact 0.10/low, likelihood 0.15/low) => risk low
	// low     administrator  read    appointments  appointment     0.10 (low)     0.15 (low)     non-allowed actor "administrator" may read appointment, date_of_birth, name from datastore "appointments" although no declared flow requires it; most sensitive field "appointment" (impact 0.10/low, likelihood 0.15/low) => risk low
	// low     administrator  read    appointments  appointment     0.10 (low)     0.15 (low)     non-allowed actor "administrator" may read appointment, date_of_birth, name from datastore "appointments" although no declared flow requires it; most sensitive field "appointment" (impact 0.10/low, likelihood 0.15/low) => risk low
	// low     administrator  read    appointments  appointment     0.10 (low)     0.15 (low)     non-allowed actor "administrator" may read appointment, date_of_birth, name from datastore "appointments" although no declared flow requires it; most sensitive field "appointment" (impact 0.10/low, likelihood 0.15/low) => risk low
	// low     administrator  read    appointments  appointment     0.10 (low)     0.15 (low)     non-allowed actor "administrator" may read appointment, date_of_birth, name from datastore "appointments" although no declared flow requires it; most sensitive field "appointment" (impact 0.10/low, likelihood 0.15/low) => risk low
	// low     administrator  read    appointments  appointment     0.10 (low)     0.15 (low)     non-allowed actor "administrator" may read appointment, date_of_birth, name from datastore "appointments" although no declared flow requires it; most sensitive field "appointment" (impact 0.10/low, likelihood 0.15/low) => risk low
	// low     administrator  read    appointments  appointment     0.10 (low)     0.15 (low)     non-allowed actor "administrator" may read appointment, date_of_birth, name from datastore "appointments" although no declared flow requires it; most sensitive field "appointment" (impact 0.10/low, likelihood 0.15/low) => risk low
	// low     administrator  read    appointments  appointment     0.10 (low)     0.15 (low)     non-allowed actor "administrator" may read appointment, date_of_birth, name from datastore "appointments" although no declared flow requires it; most sensitive field "appointment" (impact 0.10/low, likelihood 0.15/low) => risk low
	//
	// Suggested mitigations
	// ---------------------
	// actor          risk    suggested mitigation
	// -------------  ------  ----------------------------------------------------------------------------------------------------------------------------------------------------
	// administrator  medium  remove or restrict "administrator"'s read access to ehr.diagnosis (e.g. accesscontrol.ACL.Restrict), or pseudonymise the field before storage
	// researcher     medium  remove or restrict "researcher"'s read access to anon_ehr.diagnosis_anon (e.g. accesscontrol.ACL.Restrict), or pseudonymise the field before storage
	//
	// Mitigation: restrict the administrator's EHR access to the name field.
	// Administrator risk: medium -> low
	//
	// actor          datastore     field           risk before  risk after
	// -------------  ------------  --------------  -----------  ----------
	// administrator  anon_ehr      diagnosis_anon  low          low
	// administrator  appointments  appointment     low          low
	// administrator  ehr           diagnosis       medium       none
	// administrator  ehr           name            none         low
	// researcher     anon_ehr      diagnosis_anon  medium       medium
}

// ExampleAnalyzePseudonymisation runs the paper's case study IV-B (Table I
// and Fig. 4). Six records are 2-anonymised on age and height; the policy is
// that a researcher who sees only the anonymised data must not predict an
// individual's weight to within 5 kg with at least 90 % confidence. Table I
// counts the violations as the researcher sees more quasi-identifiers, and
// the risk transitions layer the same scores onto the privacy LTS of the
// metrics-study model.
func ExampleAnalyzePseudonymisation() {
	policy := casestudytest.ResearchPolicy()
	records := casestudytest.TableIRecords()

	fmt.Println("Policy:", policy.Description)
	fmt.Println()
	fmt.Println("2-anonymised records (Table I input):")
	fmt.Println(trimmed(records.String()))
	fmt.Println()

	// Table I: value risks as more quasi-identifiers become visible.
	evaluator, err := privascope.NewValueRiskEvaluator(records, policy)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	progression := [][]string{{"height"}, {"age"}, {"age", "height"}}
	results, err := evaluator.EvaluateProgression(context.Background(), progression)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("Table I — risk values for the 2-anonymised records:")
	fmt.Println(trimmed(privascope.RenderTableI(evaluator, results)))
	fmt.Println()

	// Fig. 4: the same risks layered onto the privacy LTS.
	annotation, err := privascope.AnalyzePseudonymisation(casestudytest.Metrics(),
		casestudy.ActorResearcher, policy, records)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(trimmed(privascope.RenderPseudonymisation(annotation)))
	fmt.Println()
	var counts []int
	for _, rt := range annotation.RiskTransitions {
		counts = append(counts, rt.Result.Violations)
	}
	fmt.Printf("violation counts across at-risk states: %v (the paper's Fig. 4 shows 0, 2 and 4)\n", counts)
	// Output:
	// Policy: the researcher must not predict an individual's weight to within 5 kg with at least 90% confidence
	//
	// 2-anonymised records (Table I input):
	// age    height (cm)  weight (kg)
	// 30-40  180-200      100
	// 30-40  180-200      102
	// 20-30  180-200      110
	// 20-30  180-200      111
	// 20-30  160-180      80
	// 20-30  160-180      110
	//
	// Table I — risk values for the 2-anonymised records:
	// age          height   weight  height risk  age risk  age+height risk
	// -----------  -------  ------  -----------  --------  ---------------
	// 30-40        180-200  100     2/4          2/2       2/2
	// 30-40        180-200  102     2/4          2/2       2/2
	// 20-30        180-200  110     2/4          3/4       2/2
	// 20-30        180-200  111     2/4          3/4       2/2
	// 20-30        160-180  80      1/2          1/4       1/2
	// 20-30        160-180  110     1/2          3/4       1/2
	// Violations:                   0            2         4
	//
	// Pseudonymisation risk for actor researcher
	// ==========================================
	//
	// Policy
	// ------
	// the researcher must not predict an individual's weight to within 5 kg with at least 90% confidence
	//
	// Risk transitions
	// ----------------
	// at-risk state  fields read            violations  violation fraction  max risk
	// -------------  ---------------------  ----------  ------------------  --------
	// s5             (none)                 0           0%                  0.50
	// s8             height_anon            0           0%                  0.50
	// s9             age_anon               2           33%                 1.00
	// s11            age_anon, height_anon  4           67%                 1.00
	//
	// violation counts across at-risk states: [0 0 2 4] (the paper's Fig. 4 shows 0, 2 and 4)
}

// ExampleCheckCompliance checks the modelled behaviour of the doctors'
// surgery against the privacy policies its services state to users. Policies
// derived from the declared flows are met; then a service states no policy
// at all, and a statement's purpose no longer matches the flow that uses
// the data.
func ExampleCheckCompliance() {
	generated, err := privascope.Generate(casestudy.Surgery())
	if err != nil {
		fmt.Println("error:", err)
		return
	}

	// 1. Derive policies that exactly cover today's behaviour and verify the
	//    model against them.
	medical := privascope.DerivePolicy(generated, casestudy.ServiceMedical)
	research := privascope.DerivePolicy(generated, casestudy.ServiceResearch)
	fmt.Printf("derived %d statements for the Medical Service and %d for the Research Service\n",
		len(medical.Statements), len(research.Statements))
	fmt.Println()

	check := func(title string, policies ...privascope.ServicePolicy) {
		result, err := privascope.CheckCompliance(generated, policies...)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Println(title)
		fmt.Println(trimmed(privascope.RenderCompliance(result)))
		fmt.Println()
	}
	check("1) behaviour vs derived policies:", medical, research)

	// 2. Forget to publish a policy for the research service.
	check("2) research service has no stated policy:", medical)

	// 3. The nurse's read is re-purposed in the stated policy, so the flow
	//    no longer matches what users were told.
	repurposed := medical
	repurposed.Statements = append([]privascope.PolicyStatement(nil), medical.Statements...)
	for i, statement := range repurposed.Statements {
		if statement.Actor == casestudy.ActorNurse {
			repurposed.Statements[i].Purposes = []string{"billing"}
		}
	}
	check("3) stated purpose no longer matches the flow:", repurposed, research)
	// Output:
	// derived 6 statements for the Medical Service and 3 for the Research Service
	//
	// 1) behaviour vs derived policies:
	// Privacy-policy compliance
	// =========================
	//
	// Result
	// ------
	// COMPLIANT — 15 transitions checked
	//
	// 2) research service has no stated policy:
	// Privacy-policy compliance
	// =========================
	//
	// Result
	// ------
	// NON-COMPLIANT (6 violations) — 15 transitions checked
	//
	// Violations
	// ----------
	// service                   actor       action  fields                                                                   reason
	// ------------------------  ----------  ------  -----------------------------------------------------------------------  ---------------------------------------------------------------
	// medical-research-service  doctor      read    date_of_birth, diagnosis, medical_issues, treatment                      service "medical-research-service" has no stated privacy policy
	// medical-research-service  doctor      anon    date_of_birth_anon, diagnosis_anon, medical_issues_anon, treatment_anon  service "medical-research-service" has no stated privacy policy
	// medical-research-service  doctor      read    date_of_birth, diagnosis, medical_issues, treatment                      service "medical-research-service" has no stated privacy policy
	// medical-research-service  researcher  read    date_of_birth_anon, diagnosis_anon, medical_issues_anon, treatment_anon  service "medical-research-service" has no stated privacy policy
	// medical-research-service  doctor      anon    date_of_birth_anon, diagnosis_anon, medical_issues_anon, treatment_anon  service "medical-research-service" has no stated privacy policy
	// medical-research-service  researcher  read    date_of_birth_anon, diagnosis_anon, medical_issues_anon, treatment_anon  service "medical-research-service" has no stated privacy policy
	//
	// 3) stated purpose no longer matches the flow:
	// Privacy-policy compliance
	// =========================
	//
	// Result
	// ------
	// NON-COMPLIANT (4 violations) — 15 transitions checked
	//
	// Violations
	// ----------
	// service          actor  action  fields           reason
	// ---------------  -----  ------  ---------------  --------------------------------------------------------------------------------------------------------------------
	// medical-service  nurse  read    name, treatment  the stated policy of "medical-service" does not permit nurse to read field "name" for purpose "administer treatment"
	// medical-service  nurse  read    name, treatment  the stated policy of "medical-service" does not permit nurse to read field "name" for purpose "administer treatment"
	// medical-service  nurse  read    name, treatment  the stated policy of "medical-service" does not permit nurse to read field "name" for purpose "administer treatment"
	// medical-service  nurse  read    name, treatment  the stated policy of "medical-service" does not permit nurse to read field "name" for purpose "administer treatment"
}

// ExampleStartCluster runs the doctors'-surgery model as live HTTP datastore
// services and monitors the patient's privacy against the generated model.
// The Medical Service runs over HTTP; the person-to-person collects are
// observed directly. The patient consented to that service, so none of it
// raises an alert. Then the administrator browses the EHR, a read the policy
// permits but no declared flow performs, and the monitor raises the
// medium-risk alert of case study IV-A, observed at runtime rather than
// predicted at design time.
func ExampleStartCluster() {
	model := casestudy.Surgery()
	profile := casestudy.PatientProfile()
	userID := profile.ID

	generated, err := privascope.Generate(model)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	monitor, err := privascope.NewMonitor(generated, privascope.MonitorConfig{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if err := monitor.RegisterUser(profile); err != nil {
		fmt.Println("error:", err)
		return
	}

	// Each step is a collect the monitor observes directly, or one datastore
	// request over HTTP whose event the datastore hands to the monitor before
	// it answers, so the monitor sees the steps in order. The datastores call
	// the sink on their request goroutines.
	var trueVariables atomic.Int64 // in the user's privacy state after the last step
	observe := func(ev privascope.Event, report bool) {
		obs, err := monitor.Observe(ev)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		if vec, ok := generated.Vector(obs.To); ok {
			trueVariables.Store(int64(vec.CountTrue()))
		}
		if !report {
			return
		}
		fmt.Printf("observed %-8s by %-13s on %-12s -> privacy state %s\n",
			ev.Action, ev.Actor, ev.Datastore, obs.To)
		for _, alert := range obs.Alerts {
			fmt.Printf("  ALERT [%s] %s\n", alert.Kind, alert.Message)
		}
	}
	cluster, err := privascope.StartCluster(model, func(ev privascope.Event) { observe(ev, true) })
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer cluster.Stop(context.Background())

	steps := []struct {
		collect        *privascope.Event
		method, store  string
		actor, purpose string
		fields         []string
		values         map[string]string
	}{
		{collect: &privascope.Event{Actor: casestudy.ActorReceptionist, Action: privascope.ActionCollect,
			UserID: userID, Fields: []string{casestudy.FieldName, casestudy.FieldDateOfBirth}}},
		{method: http.MethodPut, store: casestudy.StoreAppointments, actor: casestudy.ActorReceptionist,
			purpose: "schedule appointment", values: map[string]string{
				casestudy.FieldName:        "Pat Example",
				casestudy.FieldDateOfBirth: "1990-01-01",
				casestudy.FieldAppointment: "2026-06-22 10:30",
			}},
		{method: http.MethodGet, store: casestudy.StoreAppointments, actor: casestudy.ActorDoctor,
			purpose: "prepare consultation"},
		{collect: &privascope.Event{Actor: casestudy.ActorDoctor, Action: privascope.ActionCollect,
			UserID: userID, Fields: []string{casestudy.FieldMedicalIssues}}},
		{method: http.MethodPut, store: casestudy.StoreEHR, actor: casestudy.ActorDoctor,
			purpose: "record consultation", values: map[string]string{
				casestudy.FieldName:          "Pat Example",
				casestudy.FieldDateOfBirth:   "1990-01-01",
				casestudy.FieldMedicalIssues: "persistent cough",
				casestudy.FieldDiagnosis:     "bronchitis",
				casestudy.FieldTreatment:     "rest and fluids",
			}},
		{method: http.MethodGet, store: casestudy.StoreEHR, actor: casestudy.ActorNurse,
			purpose: "administer treatment", fields: []string{casestudy.FieldName, casestudy.FieldTreatment}},
		// The administrator browses the EHR outside any service flow.
		{method: http.MethodGet, store: casestudy.StoreEHR, actor: casestudy.ActorAdministrator,
			purpose: "maintenance", fields: []string{casestudy.FieldDiagnosis}},
	}
	for _, step := range steps {
		if step.collect != nil {
			observe(*step.collect, false)
			continue
		}
		base, err := cluster.URL(step.store)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		if err := datastoreRequest(step.method, base, userID, step.actor, step.purpose, step.fields, step.values); err != nil {
			fmt.Println("error:", err)
			return
		}
	}
	fmt.Println()
	var alerts []privascope.Alert
	for _, alert := range monitor.Alerts() {
		if alert.UserID == userID {
			alerts = append(alerts, alert)
		}
	}
	fmt.Printf("monitoring summary: %d alert(s) for user %q\n", len(alerts), userID)
	for _, alert := range alerts {
		fmt.Printf("  [%s] risk=%s actor=%s fields=%v\n", alert.Kind, alert.Risk, alert.Event.Actor, alert.Event.Fields)
	}
	fmt.Printf("final privacy state has %d true state variables\n", trueVariables.Load())
	// Output:
	// observed create   by receptionist  on appointments -> privacy state s2
	// observed read     by doctor        on appointments -> privacy state s3
	// observed create   by doctor        on ehr          -> privacy state s8
	// observed read     by nurse         on ehr          -> privacy state s11
	// observed read     by administrator on ehr          -> privacy state s21
	//   ALERT [risk] medium-risk disclosure event for user "patient-1": non-allowed actor "administrator" may read date_of_birth, diagnosis, medical_issues, name, treatment from datastore "ehr" although no declared flow requires it; most sensitive field "diagnosis" (impact 0.90/high, likelihood 0.15/low) => risk medium
	//
	// monitoring summary: 1 alert(s) for user "patient-1"
	//   [risk] risk=medium actor=administrator fields=[diagnosis]
	// final privacy state has 33 true state variables
}

// datastoreRequest performs one request of the datastore HTTP protocol on
// a user's record: the acting actor and the purpose travel in the
// X-Privascope-Actor and X-Privascope-Purpose headers, a write sends
// {"values": {...}}, and a read names its fields in the query.
func datastoreRequest(method, base, userID, actor, purpose string, fields []string, values map[string]string) error {
	url := base + "/records/" + userID
	if len(fields) > 0 {
		url += "?fields=" + strings.Join(fields, ",")
	}
	var body io.Reader
	if values != nil {
		data, err := json.Marshal(map[string]any{"values": values})
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return err
	}
	req.Header.Set("X-Privascope-Actor", actor)
	req.Header.Set("X-Privascope-Purpose", purpose)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode >= http.StatusMultipleChoices {
		return fmt.Errorf("%s %s: %s", method, url, resp.Status)
	}
	return nil
}

// ExampleGenerateWithOptions generates the privacy LTS with the parallel
// exploration engine: Workers goroutines expand the BFS frontier
// concurrently, and the merged result — state IDs, transition order, initial
// state — is byte-identical no matter how many workers explored it.
func ExampleGenerateWithOptions() {
	model := casestudy.Surgery()

	serial, err := privascope.GenerateWithOptions(model, privascope.GenerateOptions{Workers: 1})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	parallel, err := privascope.GenerateWithOptions(model, privascope.GenerateOptions{Workers: 8})
	if err != nil {
		fmt.Println("error:", err)
		return
	}

	a, _ := json.Marshal(serial)
	b, _ := json.Marshal(parallel)
	fmt.Printf("states=%d transitions=%d\n", parallel.Stats().States, parallel.Stats().Transitions)
	fmt.Println("identical across worker counts:", bytes.Equal(a, b))
	// Output:
	// states=47 transitions=49
	// identical across worker counts: true
}

// ExampleGenerateWithOptions_workers shows the default worker count: leaving
// Workers at zero uses one exploration goroutine per available CPU, and the
// result is exactly the model a single-worker run produces.
func ExampleGenerateWithOptions_workers() {
	opts := privascope.GenerateOptions{
		FlowOrdering:   privascope.OrderDataDriven,
		PotentialReads: privascope.PotentialReadsOff,
		// Workers: 0 selects runtime.GOMAXPROCS(0) workers.
	}
	defaulted, err := privascope.GenerateWithOptions(casestudy.Surgery(), opts)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	opts.Workers = 1
	serial, err := privascope.GenerateWithOptions(casestudy.Surgery(), opts)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	a, _ := json.Marshal(defaulted)
	b, _ := json.Marshal(serial)
	fmt.Println("states:", defaulted.Stats().States)
	fmt.Println("default workers match single-worker output:", bytes.Equal(a, b))
	// Output:
	// states: 20
	// default workers match single-worker output: true
}

// ExampleGenerate shows the size of the formal privacy model generated for
// the doctors'-surgery system of Fig. 1.
func ExampleGenerate() {
	p, err := privascope.Generate(casestudy.Surgery())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	stats := p.Stats()
	fmt.Printf("actors=%d fields=%d state-variables=%d\n", stats.Actors, stats.Fields, stats.StateVariables)
	fmt.Printf("states=%d transitions=%d potential-reads=%d\n",
		stats.States, stats.Transitions, stats.PotentialTransitions)
	// Output:
	// actors=5 fields=10 state-variables=100
	// states=47 transitions=49 potential-reads=34
}

// clinicModel builds the quickstart's clinic: a patient, a doctor who
// records the consultation in an EHR, and an IT administrator whose
// maintenance access to the EHR no flow needs.
func clinicModel() (*privascope.Model, error) {
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
		return nil, err
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
	return builder.Build()
}

// trimmed returns rendered text as an Output comment can state it: no
// trailing spaces on a line, no trailing newline.
func trimmed(text string) string {
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	for i, line := range lines {
		lines[i] = strings.TrimRight(line, " ")
	}
	return strings.Join(lines, "\n")
}
