package risk

import (
	"context"
	"reflect"
	"testing"

	"privascope/internal/core"
)

// FuzzAnalyzeOrder analyses the case-study model for fuzzer-chosen profiles:
// byte 0 is a consent mask over its two services, byte 1 picks the default
// σ and each further byte one vocabulary field's σ, from a palette that
// repeats 0.3 so impact ties are common. The assessment must deep-equal the
// reference analyzer's, and the profile's population entry, read off the
// ranked walk, must be the assessment's first finding.
func FuzzAnalyzeOrder(f *testing.F) {
	p, err := core.Generate(surgeryModel())
	if err != nil {
		f.Fatal(err)
	}
	fields := p.Compiled().Fields()
	services := []string{"medical-service", "medical-research-service"}
	palette := []float64{0, 0.3, 0.3, 0.7, 1}
	analyzer := MustAnalyzer(Config{})
	f.Fuzz(func(t *testing.T, data []byte) {
		profile := UserProfile{ID: "fuzzed", Sensitivities: make(map[string]float64)}
		if len(data) > 0 {
			for i, svc := range services {
				if data[0]&(1<<i) != 0 {
					profile.ConsentedServices = append(profile.ConsentedServices, svc)
				}
			}
		}
		if len(data) > 1 {
			profile.DefaultSensitivity = palette[int(data[1])%len(palette)]
			for i, b := range data[2:min(len(data), 2+len(fields))] {
				profile.Sensitivities[fields[i]] = palette[int(b)%len(palette)]
			}
		}
		got, err := analyzer.AnalyzeContext(context.Background(), p, profile)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceAnalyze(analyzer, context.Background(), p, profile)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("profile %+v: %d findings differ from the reference's %d", profile, len(got.Findings), len(want.Findings))
		}
		population, err := analyzer.AnalyzePopulationContext(context.Background(), p, []UserProfile{profile})
		if err != nil {
			t.Fatal(err)
		}
		entry := UserRisk{UserID: profile.ID, OverallRisk: got.OverallRisk, Findings: len(got.Findings)}
		if len(got.Findings) > 0 {
			entry.HighestImpactField, entry.WorstActor = got.Findings[0].DrivingField, got.Findings[0].Actor
		}
		if population.Users[0] != entry {
			t.Fatalf("profile %+v: population entry %+v, first finding gives %+v", profile, population.Users[0], entry)
		}
	})
}
