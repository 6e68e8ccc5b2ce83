package pseudorisk_test

import (
	"context"
	"errors"
	"testing"

	"privascope/internal/pseudorisk"
	"privascope/internal/synth"
	"privascope/internal/testutil"
)

func TestEvaluateProgressionContextPreCancelled(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	table := synth.HealthRecords(20_000, 5)
	evaluator, err := pseudorisk.NewEvaluator(table,
		pseudorisk.Policy{TargetField: "weight", Closeness: 5, Confidence: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	progression := [][]string{{"age"}, {"height"}, {"age", "height"}}
	if _, err := evaluator.EvaluateProgression(ctx, progression); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// The cancelled scenarios were not cached: a live caller computes them.
	results, err := evaluator.EvaluateProgression(context.Background(), progression)
	if err != nil {
		t.Fatalf("retry after cancellation: %v", err)
	}
	if len(results) != len(progression) {
		t.Fatalf("results = %d, want %d", len(results), len(progression))
	}
}
