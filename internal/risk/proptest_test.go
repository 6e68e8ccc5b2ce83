package risk_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"privascope/internal/proptest"
	"privascope/internal/proptest/scenario"
	"privascope/internal/risk"
)

// TestPropAnalyzeIsDeterministic: assessing the same scenario twice yields
// deeply equal assessments — findings, ordering, rendered reports and all.
func TestPropAnalyzeIsDeterministic(t *testing.T) {
	an := risk.MustAnalyzer(risk.Config{})
	proptest.Run(t, func(seed int64, rng *rand.Rand) error {
		s := scenario.Draw(seed)
		p, err := s.Generate()
		if err != nil {
			return err
		}
		for _, profile := range s.Profiles {
			first, err := an.AnalyzeContext(context.Background(), p, profile)
			if err != nil {
				return err
			}
			again, err := an.AnalyzeContext(context.Background(), p, profile)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(first, again) {
				t.Fatalf("seed %d: two analyses of profile %s differ", seed, profile.ID)
			}
		}
		return nil
	})
}

// redrawProfiles returns the scenario's profiles with every σ of the model's
// vocabulary, and the default, redrawn from a palette that repeats 0.3: equal
// impacts across fields, and actors tied on risk and impact, are the norm, so
// every tie-break of the report order is exercised. Each profile appears
// twice, under two IDs, so populations hold repeated shapes.
func redrawProfiles(s *scenario.Scenario, fields []string, rng *rand.Rand) []risk.UserProfile {
	palette := []float64{0, 0.3, 0.3, 0.7, 1}
	var out []risk.UserProfile
	for _, profile := range s.Profiles {
		profile.DefaultSensitivity = palette[rng.Intn(len(palette))]
		profile.Sensitivities = make(map[string]float64, len(fields))
		for _, f := range fields {
			profile.Sensitivities[f] = palette[rng.Intn(len(palette))]
		}
		twin := profile
		twin.ID += "-twin"
		out = append(out, profile, twin)
	}
	return out
}

// orderConfigs are the configurations the order properties run under: the
// defaults, and a matrix whose likelihoods leave some findings at risk none
// beside others at high.
var orderConfigs = []risk.Config{
	{},
	{Scenarios: []risk.Scenario{{Name: "only-service", Probability: 0.6, AppliesToService: true}},
		Matrix: risk.Matrix{ImpactThresholds: [2]float64{0.3, 0.7}, LikelihoodThresholds: [2]float64{0.2, 0.5},
			Table: [3][3]risk.Level{
				{risk.LevelLow, risk.LevelLow, risk.LevelHigh},
				{risk.LevelLow, risk.LevelMedium, risk.LevelHigh},
				{risk.LevelMedium, risk.LevelHigh, risk.LevelHigh}}}},
}

// TestPropAnalyzeMatchesReference pins the analyzer's findings, their order
// included, to the reference analyzer's stable comparison sort on random
// models, not only on the case-study model.
func TestPropAnalyzeMatchesReference(t *testing.T) {
	proptest.Run(t, func(seed int64, rng *rand.Rand) error {
		s := scenario.Draw(seed)
		p, err := s.Generate()
		if err != nil {
			return err
		}
		for ci, cfg := range orderConfigs {
			an := risk.MustAnalyzer(cfg)
			for _, profile := range redrawProfiles(s, p.Compiled().Fields(), rng) {
				got, err := an.AnalyzeContext(context.Background(), p, profile)
				if err != nil {
					return err
				}
				want, err := risk.ReferenceAnalyze(an, context.Background(), p, profile)
				if err != nil {
					return err
				}
				if !reflect.DeepEqual(got, want) {
					return fmt.Errorf("config %d, profile %s: %d findings differ from the reference's %d",
						ci, profile.ID, len(got.Findings), len(want.Findings))
				}
			}
		}
		return nil
	})
}

// TestPropPopulationSummaryMatchesAssessments: a population scan, which
// reads each shape's entry off the ranked walk, agrees per user with a full
// analysis (count, overall risk, the first finding's actor and driving
// field).
func TestPropPopulationSummaryMatchesAssessments(t *testing.T) {
	proptest.Run(t, func(seed int64, rng *rand.Rand) error {
		s := scenario.Draw(seed)
		p, err := s.Generate()
		if err != nil {
			return err
		}
		for ci, cfg := range orderConfigs {
			an := risk.MustAnalyzer(cfg)
			profiles := redrawProfiles(s, p.Compiled().Fields(), rng)
			got, err := an.AnalyzePopulationContext(context.Background(), p, profiles)
			if err != nil {
				return err
			}
			for i, profile := range profiles {
				a, err := an.AnalyzeContext(context.Background(), p, profile)
				if err != nil {
					return err
				}
				want := risk.UserRisk{UserID: profile.ID, OverallRisk: a.OverallRisk, Findings: len(a.Findings)}
				if len(a.Findings) > 0 {
					want.HighestImpactField, want.WorstActor = a.Findings[0].DrivingField, a.Findings[0].Actor
				}
				if got.Users[i] != want {
					return fmt.Errorf("config %d, user %s: entry %+v, its analysis gives %+v", ci, profile.ID, got.Users[i], want)
				}
			}
		}
		return nil
	})
}

// TestPropCompareOfIdenticalAssessmentsIsNeutral: diffing an assessment
// against itself reports every event unchanged.
func TestPropCompareOfIdenticalAssessmentsIsNeutral(t *testing.T) {
	an := risk.MustAnalyzer(risk.Config{})
	proptest.Run(t, func(seed int64, rng *rand.Rand) error {
		s := scenario.Draw(seed)
		p, err := s.Generate()
		if err != nil {
			return err
		}
		a, err := an.AnalyzeContext(context.Background(), p, s.Profiles[0])
		if err != nil {
			return err
		}
		for _, c := range risk.Compare(a, a) {
			if c.Before != c.After {
				t.Fatalf("seed %d: self-comparison reports a change: %s", seed, c)
			}
		}
		return nil
	})
}
