package risk

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"privascope/internal/accesscontrol"
	"privascope/internal/core"
	"privascope/internal/dataflow"
	"privascope/internal/lts"
	"privascope/internal/schema"
)

// referenceAnalyze is the pre-compiled-view AnalyzeContext, kept verbatim as
// the behavioural baseline: it walks Graph.Transitions(), re-derives the
// per-transition change through the string-keyed vector maps (ChangeOf) and
// builds a per-transition exposure map keyed by actor name. The rewritten
// analyzer must produce byte-identical assessments.
func referenceAnalyze(a *Analyzer, ctx context.Context, p *core.PrivacyLTS, profile UserProfile) (*Assessment, error) {
	if err := profile.Validate(); err != nil {
		return nil, err
	}
	for _, svc := range profile.ConsentedServices {
		if _, ok := p.Model.Service(svc); !ok {
			return nil, fmt.Errorf("risk: profile consents to unknown service %q", svc)
		}
	}

	allowed := p.Model.ServiceActors(profile.ConsentedServices...)
	allowedSet := make(map[string]bool, len(allowed))
	for _, actor := range allowed {
		allowedSet[actor] = true
	}
	var nonAllowed []string
	for _, actor := range p.Model.ActorIDs() {
		if !allowedSet[actor] {
			nonAllowed = append(nonAllowed, actor)
		}
	}
	sort.Strings(nonAllowed)

	assessment := &Assessment{
		Profile:          profile,
		AllowedActors:    allowed,
		NonAllowedActors: nonAllowed,
		OverallRisk:      LevelNone,
	}

	sigma := func(field, actor string) float64 {
		if allowedSet[actor] {
			return 0
		}
		return profile.Sensitivity(field)
	}

	for i, tr := range p.Graph.Transitions() {
		if i&255 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		label := core.LabelOf(tr)
		if label == nil {
			continue
		}
		findings := referenceAssessTransition(a, p, profile, tr, label, sigma, allowedSet)
		for _, finding := range findings {
			assessment.Findings = append(assessment.Findings, finding)
			if finding.Risk > assessment.OverallRisk {
				assessment.OverallRisk = finding.Risk
			}
		}
	}

	sort.SliceStable(assessment.Findings, func(i, j int) bool {
		fi, fj := assessment.Findings[i], assessment.Findings[j]
		if fi.Risk != fj.Risk {
			return fi.Risk > fj.Risk
		}
		if fi.Impact != fj.Impact {
			return fi.Impact > fj.Impact
		}
		return fi.Actor < fj.Actor
	})
	return assessment, nil
}

// referenceAssessTransition is the retired per-transition assessment.
func referenceAssessTransition(a *Analyzer, p *core.PrivacyLTS, profile UserProfile, tr lts.Transition,
	label *core.TransitionLabel, sigma func(field, actor string) float64, allowedSet map[string]bool) []Finding {

	type exposure struct {
		impact     float64
		driving    string
		identified bool
	}
	exposures := make(map[string]exposure)
	for _, v := range p.ChangeOf(tr) {
		s := sigma(v.Field, v.Actor)
		if s <= 0 {
			continue
		}
		cur := exposures[v.Actor]
		if s > cur.impact {
			cur.impact = s
			cur.driving = v.Field
		}
		if v.Kind == core.HasIdentified {
			cur.identified = true
		}
		exposures[v.Actor] = cur
	}
	if len(exposures) == 0 {
		return nil
	}
	actors := make([]string, 0, len(exposures))
	for actor := range exposures {
		actors = append(actors, actor)
	}
	sort.Strings(actors)

	consented := label.Service != "" && profile.Consented(label.Service)
	var findings []Finding
	for _, actor := range actors {
		exp := exposures[actor]
		likelihood := 0.0
		var scenarioNames []string
		switch {
		case !label.Potential && exp.identified && !consented:
			for _, s := range a.cfg.Scenarios {
				if s.AppliesToService {
					likelihood += s.Probability
					scenarioNames = append(scenarioNames, s.Name)
				}
			}
		default:
			for _, s := range a.cfg.Scenarios {
				if s.AppliesToService {
					continue
				}
				likelihood += s.Probability
				scenarioNames = append(scenarioNames, s.Name)
			}
		}
		if likelihood > 1 {
			likelihood = 1
		}

		impactLevel := a.cfg.Matrix.ImpactLevel(exp.impact)
		likelihoodLevel := a.cfg.Matrix.LikelihoodLevel(likelihood)
		riskLevel := a.cfg.Matrix.Risk(impactLevel, likelihoodLevel)

		finding := Finding{
			Transition:      tr,
			Action:          label.Action,
			Actor:           actor,
			PerformedBy:     label.Actor,
			Datastore:       label.Datastore,
			Fields:          label.FieldSet(),
			Potential:       label.Potential,
			Service:         label.Service,
			DrivingField:    exp.driving,
			Impact:          exp.impact,
			ImpactLevel:     impactLevel,
			Likelihood:      likelihood,
			LikelihoodLevel: likelihoodLevel,
			Scenarios:       scenarioNames,
			Risk:            riskLevel,
		}
		finding.Explanation = referenceExplain(finding)
		finding.Mitigation = referenceSuggestMitigation(finding, allowedSet)
		findings = append(findings, finding)
	}
	return findings
}

// referenceExplain is the retired fmt-based explanation rendering; the
// Builder-based rewrite must reproduce it byte for byte.
func referenceExplain(f Finding) string {
	var b strings.Builder
	switch {
	case f.Potential:
		fmt.Fprintf(&b, "non-allowed actor %q may %s %s from datastore %q although no declared flow requires it",
			f.Actor, f.Action, strings.Join(f.Fields, ", "), f.Datastore)
	case f.Actor == f.PerformedBy && f.Service != "":
		fmt.Fprintf(&b, "flow of non-consented service %q lets actor %q %s %s",
			f.Service, f.Actor, f.Action, strings.Join(f.Fields, ", "))
	case f.Service != "":
		fmt.Fprintf(&b, "%s by %q in service %q exposes %s to non-allowed actor %q",
			f.Action, f.PerformedBy, f.Service, strings.Join(f.Fields, ", "), f.Actor)
	default:
		fmt.Fprintf(&b, "%s by %q exposes %s to non-allowed actor %q",
			f.Action, f.PerformedBy, strings.Join(f.Fields, ", "), f.Actor)
	}
	fmt.Fprintf(&b, "; most sensitive field %q (impact %.2f/%s, likelihood %.2f/%s) => risk %s",
		f.DrivingField, f.Impact, f.ImpactLevel, f.Likelihood, f.LikelihoodLevel, f.Risk)
	return b.String()
}

// referenceSuggestMitigation is the retired fmt-based mitigation rendering.
func referenceSuggestMitigation(f Finding, allowedSet map[string]bool) string {
	if allowedSet[f.Actor] {
		return fmt.Sprintf("review whether field %q needs to be visible to %q at all", f.DrivingField, f.Actor)
	}
	if f.Datastore != "" {
		return fmt.Sprintf("remove or restrict %q's read access to %s.%s (e.g. accesscontrol.ACL.Restrict), or pseudonymise the field before storage",
			f.Actor, f.Datastore, f.DrivingField)
	}
	return fmt.Sprintf("remove actor %q from the service or reduce the fields disclosed to it", f.Actor)
}

// surgeryModel rebuilds the doctors'-surgery case-study model of the paper's
// Fig. 1 (mirroring internal/casestudy, which cannot be imported here without
// a cycle) so the analyzer is exercised and benchmarked on the exact model
// the evaluation uses.
func surgeryModel() *dataflow.Model {
	rw := []accesscontrol.Permission{accesscontrol.PermissionRead, accesscontrol.PermissionWrite}
	r := []accesscontrol.Permission{accesscontrol.PermissionRead}
	rwd := []accesscontrol.Permission{accesscontrol.PermissionRead, accesscontrol.PermissionWrite, accesscontrol.PermissionDelete}
	all := []string{accesscontrol.AllFields}
	policy := accesscontrol.MustACL(
		accesscontrol.Grant{Actor: "receptionist", Datastore: "appointments", Fields: all, Permissions: rw},
		accesscontrol.Grant{Actor: "doctor", Datastore: "appointments", Fields: all, Permissions: r},
		accesscontrol.Grant{Actor: "doctor", Datastore: "ehr", Fields: all, Permissions: rw},
		accesscontrol.Grant{Actor: "doctor", Datastore: "anon_ehr", Fields: all, Permissions: rw},
		accesscontrol.Grant{Actor: "nurse", Datastore: "ehr", Fields: []string{"name", "treatment"}, Permissions: r},
		accesscontrol.Grant{Actor: "administrator", Datastore: "appointments", Fields: all, Permissions: rwd},
		accesscontrol.Grant{Actor: "administrator", Datastore: "ehr", Fields: all, Permissions: rwd},
		accesscontrol.Grant{Actor: "administrator", Datastore: "anon_ehr", Fields: all,
			Permissions: []accesscontrol.Permission{accesscontrol.PermissionRead, accesscontrol.PermissionDelete}},
		accesscontrol.Grant{Actor: "researcher", Datastore: "anon_ehr", Fields: all, Permissions: r},
	)

	appointmentsSchema := schema.MustSchema("appointments",
		schema.Field{Name: "name", Category: schema.CategoryIdentifier},
		schema.Field{Name: "date_of_birth", Category: schema.CategoryQuasiIdentifier},
		schema.Field{Name: "appointment", Category: schema.CategoryStandard},
	)
	ehrSchema := schema.MustSchema("ehr",
		schema.Field{Name: "name", Category: schema.CategoryIdentifier},
		schema.Field{Name: "date_of_birth", Category: schema.CategoryQuasiIdentifier},
		schema.Field{Name: "medical_issues", Category: schema.CategorySensitive},
		schema.Field{Name: "diagnosis", Category: schema.CategorySensitive},
		schema.Field{Name: "treatment", Category: schema.CategorySensitive},
	)
	anonEHRSchema := schema.MustSchema("anon_ehr",
		schema.Field{Name: schema.AnonName("date_of_birth"), Category: schema.CategoryQuasiIdentifier, Pseudonymised: true},
		schema.Field{Name: schema.AnonName("medical_issues"), Category: schema.CategorySensitive, Pseudonymised: true},
		schema.Field{Name: schema.AnonName("diagnosis"), Category: schema.CategorySensitive, Pseudonymised: true},
		schema.Field{Name: schema.AnonName("treatment"), Category: schema.CategorySensitive, Pseudonymised: true},
	)

	b := dataflow.NewBuilder("doctors-surgery", dataflow.Actor{ID: "patient", Name: "Patient"})
	b.AddActors(
		dataflow.Actor{ID: "receptionist", Name: "Receptionist"},
		dataflow.Actor{ID: "doctor", Name: "Doctor"},
		dataflow.Actor{ID: "nurse", Name: "Nurse"},
		dataflow.Actor{ID: "administrator", Name: "Administrator"},
		dataflow.Actor{ID: "researcher", Name: "Researcher"},
	)
	b.AddDatastore(schema.Datastore{ID: "appointments", Name: "Appointments", Schema: appointmentsSchema})
	b.AddDatastore(schema.Datastore{ID: "ehr", Name: "Electronic Health Records", Schema: ehrSchema})
	b.AddDatastore(schema.Datastore{ID: "anon_ehr", Name: "Anonymised EHR", Schema: anonEHRSchema, Anonymised: true})
	b.AddService(dataflow.Service{ID: "medical-service", Name: "Medical Service"})
	b.AddService(dataflow.Service{ID: "medical-research-service", Name: "Medical Research Service"})

	b.Flow("medical-service", "patient", "receptionist", []string{"name", "date_of_birth"}, "book appointment")
	b.AuthoredFlow("medical-service", "receptionist", "appointments",
		[]string{"name", "date_of_birth", "appointment"}, []string{"appointment"}, "schedule appointment")
	b.Flow("medical-service", "appointments", "doctor",
		[]string{"name", "date_of_birth", "appointment"}, "prepare consultation")
	b.Flow("medical-service", "patient", "doctor", []string{"medical_issues"}, "consultation")
	b.AuthoredFlow("medical-service", "doctor", "ehr",
		[]string{"name", "date_of_birth", "medical_issues", "diagnosis", "treatment"},
		[]string{"diagnosis", "treatment"}, "record consultation")
	b.Flow("medical-service", "ehr", "nurse", []string{"name", "treatment"}, "administer treatment")

	b.Flow("medical-research-service", "ehr", "doctor",
		[]string{"date_of_birth", "medical_issues", "diagnosis", "treatment"}, "prepare research extract")
	b.Flow("medical-research-service", "doctor", "anon_ehr",
		[]string{"date_of_birth", "medical_issues", "diagnosis", "treatment"}, "pseudonymise research data")
	b.Flow("medical-research-service", "anon_ehr", "researcher",
		[]string{schema.AnonName("date_of_birth"), schema.AnonName("medical_issues"),
			schema.AnonName("diagnosis"), schema.AnonName("treatment")}, "medical research")

	b.WithPolicy(policy)
	return b.MustBuild()
}

// surgeryProfiles covers the assessment space: the case-study patient shape,
// no consent, full consent, default-only sensitivities and an all-zero
// profile.
func surgeryProfiles() []UserProfile {
	return []UserProfile{
		{
			ID:                "patient-1",
			ConsentedServices: []string{"medical-service"},
			Sensitivities: map[string]float64{
				"diagnosis":                       SensitivityHigh,
				"medical_issues":                  SensitivityMedium,
				"treatment":                       SensitivityMedium,
				schema.AnonName("diagnosis"):      SensitivityMedium,
				schema.AnonName("medical_issues"): SensitivityLow,
				schema.AnonName("treatment"):      SensitivityLow,
				schema.AnonName("date_of_birth"):  SensitivityLow,
			},
			DefaultSensitivity: 0.1,
		},
		{ID: "nobody", DefaultSensitivity: 0.5},
		{ID: "everything", ConsentedServices: []string{"medical-service", "medical-research-service"},
			DefaultSensitivity: 0.9},
		{ID: "indifferent", ConsentedServices: []string{"medical-research-service"}},
		{ID: "picky", ConsentedServices: []string{"medical-service"},
			Sensitivities: map[string]float64{"name": 1, "diagnosis": 0}, DefaultSensitivity: 0.33},
	}
}

// TestValidateRejectsNaN pins the NaN guard: a NaN sensitivity must fail
// validation instead of reaching the analyzer, where it would corrupt the
// impact maximum (NaN compares false against everything).
func TestValidateRejectsNaN(t *testing.T) {
	nan := math.NaN()
	if err := (UserProfile{DefaultSensitivity: nan}).Validate(); err == nil {
		t.Fatal("NaN default sensitivity passed validation")
	}
	profile := UserProfile{Sensitivities: map[string]float64{"diagnosis": nan}}
	if err := profile.Validate(); err == nil {
		t.Fatal("NaN field sensitivity passed validation")
	}
	a := MustAnalyzer(Config{})
	p, err := core.Generate(surgeryModel())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Analyze(p, profile); err == nil {
		t.Fatal("Analyze accepted a NaN sensitivity")
	}
}

// TestAnalyzeMatchesReference pins the compiled-view analyzer to the
// reference implementation on the case-study model across profile shapes:
// reflect.DeepEqual on the assessments and byte-identical JSON.
func TestAnalyzeMatchesReference(t *testing.T) {
	p, err := core.Generate(surgeryModel())
	if err != nil {
		t.Fatal(err)
	}
	configs := []Config{
		{},
		{Scenarios: []Scenario{{Name: "only-service", Probability: 0.4, AppliesToService: true}}},
		{Scenarios: []Scenario{{Name: "only-other", Probability: 0.6}}},
	}
	for ci, cfg := range configs {
		a := MustAnalyzer(cfg)
		for _, profile := range surgeryProfiles() {
			got, err := a.Analyze(p, profile)
			if err != nil {
				t.Fatalf("config %d, profile %s: %v", ci, profile.ID, err)
			}
			want, err := referenceAnalyze(a, context.Background(), p, profile)
			if err != nil {
				t.Fatalf("config %d, profile %s (reference): %v", ci, profile.ID, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("config %d, profile %s: assessment differs from reference\n got: %+v\nwant: %+v",
					ci, profile.ID, got, want)
			}
			gotJSON, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			wantJSON, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			if string(gotJSON) != string(wantJSON) {
				t.Fatalf("config %d, profile %s: JSON differs from reference", ci, profile.ID)
			}
		}
	}
}
