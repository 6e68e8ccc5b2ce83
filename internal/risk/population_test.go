package risk

import (
	"context"
	"fmt"
	"testing"

	"privascope/internal/accesscontrol"
)

func TestAnalyzePopulation(t *testing.T) {
	p := generate(t, clinicModel(t, []string{accesscontrol.AllFields}))
	a := MustAnalyzer(Config{})

	sensitive := patientProfile()
	indifferent := UserProfile{ID: "easygoing", ConsentedServices: []string{"care", "research"}}
	noConsent := patientProfile()
	noConsent.ID = "wary"
	noConsent.ConsentedServices = nil

	population, err := a.AnalyzePopulationContext(context.Background(), p, []UserProfile{sensitive, indifferent, noConsent})
	if err != nil {
		t.Fatalf("AnalyzePopulation: %v", err)
	}
	if len(population.Users) != 3 {
		t.Fatalf("users = %d", len(population.Users))
	}
	if population.Users[0].UserID != "patient-1" || population.Users[1].UserID != "easygoing" {
		t.Errorf("user order not preserved: %+v", population.Users)
	}
	if population.Users[1].OverallRisk != LevelNone || population.Users[1].Findings != 0 {
		t.Errorf("indifferent user should have no findings: %+v", population.Users[1])
	}
	if population.Users[0].OverallRisk < LevelMedium {
		t.Errorf("sensitive user risk = %v", population.Users[0].OverallRisk)
	}
	if population.Users[0].WorstActor == "" || population.Users[0].HighestImpactField == "" {
		t.Errorf("top finding not summarised: %+v", population.Users[0])
	}
	if population.UsersAtRisk < 2 {
		t.Errorf("UsersAtRisk = %d, want at least 2", population.UsersAtRisk)
	}
	total := 0
	for _, n := range population.Distribution {
		total += n
	}
	if total != 3 {
		t.Errorf("distribution covers %d users, want 3", total)
	}
	ranked := population.WorstActorsRanked()
	if len(ranked) == 0 {
		t.Fatal("no worst actors ranked")
	}
	for i := 1; i < len(ranked); i++ {
		if population.WorstActors[ranked[i-1]] < population.WorstActors[ranked[i]] {
			t.Errorf("ranking not sorted: %v", ranked)
		}
	}
}

func TestAnalyzePopulationErrors(t *testing.T) {
	p := generate(t, clinicModel(t, []string{accesscontrol.AllFields}))
	a := MustAnalyzer(Config{})
	if _, err := a.AnalyzePopulationContext(context.Background(), nil, []UserProfile{patientProfile()}); err == nil {
		t.Error("nil LTS accepted")
	}
	if _, err := a.AnalyzePopulationContext(context.Background(), p, nil); err == nil {
		t.Error("empty population accepted")
	}
	bad := patientProfile()
	bad.Sensitivities["x"] = 7
	if _, err := a.AnalyzePopulationContext(context.Background(), p, []UserProfile{patientProfile(), bad}); err == nil {
		t.Error("invalid profile accepted")
	}
}

func TestAnalyzePopulationDeduplicatesShapes(t *testing.T) {
	p := generate(t, clinicModel(t, []string{accesscontrol.AllFields}))
	a := MustAnalyzer(Config{})

	// Three shapes, many users: the analysis must run once per shape and the
	// per-user entries must match an uncached run exactly.
	shapes := []UserProfile{
		patientProfile(),
		{ConsentedServices: []string{"care", "research"}},
		{ConsentedServices: nil, DefaultSensitivity: 0.9},
	}
	var population []UserProfile
	for i := 0; i < 60; i++ {
		profile := shapes[i%len(shapes)]
		profile.ID = fmt.Sprintf("user-%03d", i)
		population = append(population, profile)
	}
	got, err := a.AnalyzePopulationContext(context.Background(), p, population)
	if err != nil {
		t.Fatalf("AnalyzePopulation: %v", err)
	}
	if got.DistinctShapes != len(shapes) {
		t.Errorf("DistinctShapes = %d, want %d", got.DistinctShapes, len(shapes))
	}
	if len(got.Users) != len(population) {
		t.Fatalf("users = %d, want %d", len(got.Users), len(population))
	}
	for i, u := range got.Users {
		if u.UserID != population[i].ID {
			t.Fatalf("user %d = %q, want %q (input order lost)", i, u.UserID, population[i].ID)
		}
		// Same-shaped users must agree on every aggregate.
		ref := got.Users[i%len(shapes)]
		if u.OverallRisk != ref.OverallRisk || u.Findings != ref.Findings ||
			u.WorstActor != ref.WorstActor || u.HighestImpactField != ref.HighestImpactField {
			t.Errorf("user %d diverges from same-shaped user: %+v vs %+v", i, u, ref)
		}
	}
}
