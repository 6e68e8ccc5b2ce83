package pseudorisk_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"privascope/internal/anonymize"
	"privascope/internal/proptest"
	"privascope/internal/pseudorisk"
)

// randomWeightTable draws a pseudonymised health-record table with a numeric
// sensitive column, shaped like the paper's Table I: interval-valued age,
// categorical city, numeric weight.
func randomWeightTable(rng *rand.Rand, maxRows int) *anonymize.Table {
	cities := []string{"North", "South", "East", "West"}
	t := anonymize.MustTable(
		anonymize.Column{Name: "age", Role: anonymize.RoleQuasiIdentifier},
		anonymize.Column{Name: "city", Role: anonymize.RoleQuasiIdentifier},
		anonymize.Column{Name: "weight", Role: anonymize.RoleSensitive},
	)
	rows := 2 + rng.Intn(maxRows-1)
	for i := 0; i < rows; i++ {
		lo := float64(20 + 10*rng.Intn(5))
		t.MustAddRow(
			anonymize.Interval(lo, lo+10),
			anonymize.Cat(cities[rng.Intn(len(cities))]),
			anonymize.Num(float64(45+rng.Intn(60))),
		)
	}
	return t
}

// randomProgression draws a random field-set progression, including
// duplicate spellings of the same canonical scenario (shuffled order, target
// field mixed in), which the evaluator's cache must canonicalise away.
func randomProgression(rng *rand.Rand) [][]string {
	base := [][]string{nil, {"age"}, {"city"}, {"age", "city"}}
	progression := make([][]string, 0, 6)
	for _, fields := range base {
		progression = append(progression, fields)
		if len(fields) > 0 && rng.Intn(2) == 0 {
			shuffled := append([]string(nil), fields...)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			progression = append(progression, append(shuffled, "weight"))
		}
	}
	return progression
}

// pairwiseRisks is Section III-B read literally: a record's set is the
// records whose visible cells have the same group keys, its frequency the
// records of that set whose target value is close to its own.
func pairwiseRisks(table *anonymize.Table, visible []string, target string, closeness float64) []anonymize.ValueRisk {
	setKey := func(r int) string {
		key := ""
		for _, column := range visible {
			v, _ := table.Value(r, column)
			key += fmt.Sprintf("%q", v.GroupKey())
		}
		return key
	}
	out := make([]anonymize.ValueRisk, table.NumRows())
	for r := range out {
		mine, _ := table.Value(r, target)
		out[r].Row = r
		for other := range out {
			if setKey(other) != setKey(r) {
				continue
			}
			out[r].SetSize++
			if theirs, _ := table.Value(other, target); mine.Close(theirs, closeness) {
				out[r].Frequency++
			}
		}
		out[r].Probability = float64(out[r].Frequency) / float64(out[r].SetSize)
	}
	return out
}

// TestPropEvaluateProgressionMatchesDefinition: over a random table the
// progression's per-record risks and violation counts are those of
// pairwiseRisks, whether the evaluator builds its own class index or is
// handed a shared one.
func TestPropEvaluateProgressionMatchesDefinition(t *testing.T) {
	proptest.Run(t, func(seed int64, rng *rand.Rand) error {
		table := randomWeightTable(rng, 64)
		policy := pseudorisk.Policy{TargetField: "weight", Closeness: 5, Confidence: 0.5 + rng.Float64()*0.5}
		progression := randomProgression(rng)

		for _, opts := range []pseudorisk.EvaluatorOptions{{}, {Index: anonymize.NewClassIndex(table)}} {
			e, err := pseudorisk.NewEvaluatorWithOptions(table, policy, opts)
			if err != nil {
				return err
			}
			results, err := e.EvaluateProgression(ctx, progression)
			if err != nil {
				return err
			}
			for i, got := range results {
				want := pairwiseRisks(table, got.VisibleFields, policy.TargetField, policy.Closeness)
				if !reflect.DeepEqual(got.Risks, want) {
					return fmt.Errorf("scenario %v (shared index: %v): risks\n%v\nwant\n%v", progression[i], opts.Index != nil, got.Risks, want)
				}
				if violations := anonymize.CountViolations(want, policy.Confidence); got.Violations != violations {
					return fmt.Errorf("scenario %v: %d violations, want %d", progression[i], got.Violations, violations)
				}
			}
		}
		return nil
	})
}

// TestPropViolationsBoundedByRecords: every scenario's violation count lies
// in [0, rows], and equivalent spellings of the same visible-field set
// produce identical results.
func TestPropViolationsBoundedByRecords(t *testing.T) {
	proptest.Run(t, func(seed int64, rng *rand.Rand) error {
		table := randomWeightTable(rng, 64)
		policy := pseudorisk.Policy{TargetField: "weight", Closeness: 5, Confidence: 0.9}
		e, err := pseudorisk.NewEvaluator(table, policy)
		if err != nil {
			return err
		}
		canonical, err := e.Evaluate(ctx, []string{"age", "city"})
		if err != nil {
			return err
		}
		if canonical.Violations < 0 || canonical.Violations > table.NumRows() {
			t.Fatalf("seed %d: %d violations outside [0, %d]", seed, canonical.Violations, table.NumRows())
		}
		respelled, err := e.Evaluate(ctx, []string{"city", "weight", "age"})
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(canonical, respelled) {
			t.Fatalf("seed %d: respelled scenario diverges:\n%v\nvs\n%v",
				seed, canonical, respelled)
		}
		return nil
	})
}
