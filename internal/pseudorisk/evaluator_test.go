package pseudorisk_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"privascope/internal/anonymize"
	"privascope/internal/pseudorisk"
)

var ctx = context.Background()

// syntheticTable builds a deterministic dataset.
func syntheticTable(rows int) *anonymize.Table {
	rng := rand.New(rand.NewSource(99))
	cities := []string{"berlin", "paris", "london", "madrid", "rome"}
	t := anonymize.MustTable(
		anonymize.Column{Name: "age", Role: anonymize.RoleQuasiIdentifier},
		anonymize.Column{Name: "city", Role: anonymize.RoleQuasiIdentifier},
		anonymize.Column{Name: "weight", Role: anonymize.RoleSensitive},
	)
	for i := 0; i < rows; i++ {
		t.MustAddRow(
			anonymize.Interval(float64(20+10*rng.Intn(6)), float64(30+10*rng.Intn(6))),
			anonymize.Cat(cities[rng.Intn(len(cities))]),
			anonymize.Num(float64(45+rng.Intn(90))),
		)
	}
	return t
}

func TestEvaluatorCachesScenarioResults(t *testing.T) {
	table := syntheticTable(500)
	policy := pseudorisk.Policy{TargetField: "weight", Closeness: 5, Confidence: 0.9}
	e, err := pseudorisk.NewEvaluator(table, policy)
	if err != nil {
		t.Fatal(err)
	}
	first, err := e.Evaluate(ctx, []string{"age", "city"})
	if err != nil {
		t.Fatal(err)
	}
	// Same canonical set, different spelling: unsorted order, target field
	// mixed in, unknown column ignored.
	second, err := e.Evaluate(ctx, []string{"city", "weight", "age", "ghost"})
	if err != nil {
		t.Fatal(err)
	}
	if &first.Risks[0] != &second.Risks[0] {
		t.Error("equivalent scenario was recomputed instead of cached")
	}
	if e.Index().Misses() != 1 {
		t.Errorf("class-index misses = %d, want 1", e.Index().Misses())
	}
}

func ExampleEvaluator_EvaluateProgression() {
	table := anonymize.MustTable(
		anonymize.Column{Name: "age", Role: anonymize.RoleQuasiIdentifier},
		anonymize.Column{Name: "weight", Role: anonymize.RoleSensitive},
	)
	for _, row := range [][2]float64{{23, 50}, {23, 55}, {34, 70}, {34, 90}} {
		table.MustAddRow(anonymize.Num(row[0]), anonymize.Num(row[1]))
	}
	e, _ := pseudorisk.NewEvaluator(table,
		pseudorisk.Policy{TargetField: "weight", Closeness: 5, Confidence: 0.9})
	results, _ := e.EvaluateProgression(ctx, [][]string{nil, {"age"}})
	for _, r := range results {
		fmt.Printf("visible=%v violations=%d\n", r.VisibleFields, r.Violations)
	}
	// Output:
	// visible=[] violations=0
	// visible=[age] violations=2
}
