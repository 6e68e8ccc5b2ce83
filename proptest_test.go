package privascope_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	privascope "privascope"
	"privascope/internal/proptest"
	"privascope/internal/proptest/scenario"
	"privascope/internal/testutil"
)

// TestPropEngineCachedMatchesCold is the cache-vs-cold equivalence property
// on the random corpus: a warm Engine (second Assess of the same model) must
// return exactly the assessment and rendered report a cold Engine returns,
// and the warm engine must not have generated the model again.
func TestPropEngineCachedMatchesCold(t *testing.T) {
	proptest.Run(t, func(seed int64, rng *rand.Rand) error {
		s := scenario.Draw(seed)
		ctx := context.Background()

		warm := privascope.MustEngine(privascope.EngineOptions{})
		first, err := warm.Assess(ctx, s.Model, s.Profiles[0])
		if err != nil {
			return err
		}
		cached, err := warm.Assess(ctx, s.Model, s.Profiles[0])
		if err != nil {
			return err
		}
		if got := warm.Generations(); got != 1 {
			t.Fatalf("seed %d: warm engine generated the model %d times, want 1", seed, got)
		}
		if !reflect.DeepEqual(first.Assessment, cached.Assessment) {
			t.Fatalf("seed %d: cached assessment differs from the first", seed)
		}

		cold := privascope.MustEngine(privascope.EngineOptions{})
		fresh, err := cold.Assess(ctx, s.Model, s.Profiles[0])
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(fresh.Assessment, cached.Assessment) {
			t.Fatalf("seed %d: cold engine's assessment differs from the cached one", seed)
		}
		if got, want := cached.Report.Render(), fresh.Report.Render(); got != want {
			t.Fatalf("seed %d: cached report differs from cold report:\n%s\nvs\n%s", seed, got, want)
		}
		return nil
	})
}

// TestPropEngineCancellationIsClean: cancelling an Engine pipeline mid-model
// either returns context.Canceled or completes, and never strands a
// goroutine; a subsequent call on the same engine still succeeds.
func TestPropEngineCancellationIsClean(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	proptest.Run(t, func(seed int64, rng *rand.Rand) error {
		s := scenario.Draw(seed)
		engine := privascope.MustEngine(privascope.EngineOptions{})

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := engine.Assess(ctx, s.Model, s.Profiles[0]); err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("seed %d: cancelled Assess returned %v, want context.Canceled or nil", seed, err)
		}
		if _, err := engine.Assess(context.Background(), s.Model, s.Profiles[0]); err != nil {
			t.Fatalf("seed %d: Assess after a cancelled attempt failed: %v", seed, err)
		}
		return nil
	})
}

// TestPropAssessPopulationMatchesPerProfile: the population pipeline returns
// the same per-profile assessments as assessing each profile individually.
func TestPropAssessPopulationMatchesPerProfile(t *testing.T) {
	proptest.Run(t, func(seed int64, rng *rand.Rand) error {
		s := scenario.Draw(seed)
		ctx := context.Background()
		engine := privascope.MustEngine(privascope.EngineOptions{})

		population, err := engine.AssessPopulation(ctx, s.Model, s.Profiles)
		if err != nil {
			return err
		}
		if len(population.Users) != len(s.Profiles) {
			t.Fatalf("seed %d: population assessed %d profiles, want %d",
				seed, len(population.Users), len(s.Profiles))
		}
		for i, profile := range s.Profiles {
			single, err := engine.Analyze(ctx, s.Model, profile)
			if err != nil {
				return err
			}
			user := population.Users[i]
			if user.UserID != profile.ID {
				t.Fatalf("seed %d: population user %d is %s, want %s", seed, i, user.UserID, profile.ID)
			}
			if user.OverallRisk != single.OverallRisk || user.Findings != len(single.Findings) {
				t.Fatalf("seed %d: population summary of %s (risk %s, %d findings) differs from individual analysis (risk %s, %d findings)",
					seed, profile.ID, user.OverallRisk, user.Findings, single.OverallRisk, len(single.Findings))
			}
		}
		return nil
	})
}

// TestPropEngineWarmRegistryColdStart: an Engine cold-started over a warm
// persistent model registry (EngineOptions.CacheDir) performs zero LTS
// generations — every model comes from disk — and its assessment and
// rendered report are byte-identical to the generated path.
func TestPropEngineWarmRegistryColdStart(t *testing.T) {
	root := t.TempDir()
	proptest.Run(t, func(seed int64, rng *rand.Rand) error {
		s := scenario.Draw(seed)
		ctx := context.Background()
		// A registry per round: two rounds may draw one model, and the
		// writer must start from a registry that lacks it.
		dir := filepath.Join(root, fmt.Sprint(seed))

		writer := privascope.MustEngine(privascope.EngineOptions{CacheDir: dir})
		baseline, err := writer.Assess(ctx, s.Model, s.Profiles[0])
		if err != nil {
			return err
		}
		if g, l := writer.Generations(), writer.Loads(); g != 1 || l != 0 {
			t.Fatalf("seed %d: writer engine generated %d and loaded %d, want 1 and 0", seed, g, l)
		}

		cold := privascope.MustEngine(privascope.EngineOptions{CacheDir: dir})
		loaded, err := cold.Assess(ctx, s.Model, s.Profiles[0])
		if err != nil {
			return err
		}
		if g, l := cold.Generations(), cold.Loads(); g != 0 || l != 1 {
			t.Fatalf("seed %d: warm-registry cold start generated %d and loaded %d, want 0 and 1", seed, g, l)
		}
		if !reflect.DeepEqual(baseline.Assessment, loaded.Assessment) {
			t.Fatalf("seed %d: assessment from the loaded model differs from the generated one", seed)
		}
		if got, want := loaded.Report.Render(), baseline.Report.Render(); got != want {
			t.Fatalf("seed %d: report from the loaded model differs:\n%s\nvs\n%s", seed, got, want)
		}
		return nil
	})
}
