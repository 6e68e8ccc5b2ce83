package anonymize

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// smallestClass returns the size of the smallest class, or math.MaxInt when
// there is none.
func smallestClass(classes [][]int) int {
	smallest := math.MaxInt
	for _, class := range classes {
		smallest = min(smallest, len(class))
	}
	return smallest
}

// maxDoublings bounds the width-doubling rounds of KAnonymize before the
// remaining undersized classes are suppressed.
const maxDoublings = 20

// KAnonymizeResult reports how k-anonymity was achieved.
type KAnonymizeResult struct {
	// K is the requested k.
	K int
	// Widths is the final bin width per numeric quasi-identifier.
	Widths map[string]float64
	// SuppressedRows lists the rows whose quasi-identifiers had to be
	// suppressed entirely because generalisation alone could not reach k.
	SuppressedRows []int
	// Classes is the number of equivalence classes in the output.
	Classes int
	// Doublings is the number of width-doubling rounds performed.
	Doublings int
}

// KAnonymize produces a k-anonymous version of the table by global recoding:
// numeric quasi-identifiers are binned with per-column widths that double
// until every equivalence class has at least k rows; rows still in
// undersized classes after maxDoublings rounds have their quasi-identifiers
// suppressed. Categorical quasi-identifiers are left as-is during widening
// and suppressed with the rest in the fallback.
//
// The input table is not modified. Every round's class building polls ctx, so
// a cancelled context aborts the search with ctx.Err().
func KAnonymize(ctx context.Context, t *Table, quasiIdentifiers []string, k int) (*Table, KAnonymizeResult, error) {
	if k <= 0 {
		return nil, KAnonymizeResult{}, errors.New("anonymize: k must be positive")
	}
	for _, q := range quasiIdentifiers {
		if _, ok := t.ColumnIndex(q); !ok {
			return nil, KAnonymizeResult{}, fmt.Errorf("anonymize: unknown quasi-identifier %q", q)
		}
	}
	widths := make(map[string]float64, len(quasiIdentifiers))
	for _, q := range quasiIdentifiers {
		widths[q] = 1
	}

	result := KAnonymizeResult{K: k, Widths: widths}
	var out *Table
	var classes [][]int
	for round := 0; ; round++ {
		result.Doublings = round
		spec := Spec{}
		for _, q := range quasiIdentifiers {
			spec[q] = NumericBinning{Width: widths[q]}
		}
		var err error
		out, err = spec.Apply(t)
		if err != nil {
			return nil, KAnonymizeResult{}, err
		}
		classes, err = out.EquivalenceClasses(ctx, quasiIdentifiers)
		if err != nil {
			return nil, KAnonymizeResult{}, err
		}
		if smallestClass(classes) >= k || round >= maxDoublings {
			break
		}
		// Double the width of the column whose smallest class is smallest —
		// a simple greedy heuristic; ties are broken by column name for
		// determinism.
		worst := ""
		worstSize := t.NumRows() + 1
		for _, q := range slices.Sorted(slices.Values(quasiIdentifiers)) {
			perColumn, err := out.EquivalenceClasses(ctx, []string{q})
			if err != nil {
				return nil, KAnonymizeResult{}, err
			}
			if size := smallestClass(perColumn); size < worstSize {
				worstSize, worst = size, q
			}
		}
		if worst == "" {
			break
		}
		widths[worst] *= 2
	}

	// Suppress quasi-identifiers of rows still in undersized classes; the
	// classes of the final widening round are reused rather than recomputed.
	for _, class := range classes {
		if len(class) >= k {
			continue
		}
		for _, r := range class {
			result.SuppressedRows = append(result.SuppressedRows, r)
			for _, q := range quasiIdentifiers {
				if err := out.SetValue(r, q, Suppressed()); err != nil {
					return nil, KAnonymizeResult{}, err
				}
			}
		}
	}
	sort.Ints(result.SuppressedRows)

	finalClasses, err := out.EquivalenceClasses(ctx, quasiIdentifiers)
	if err != nil {
		return nil, KAnonymizeResult{}, err
	}
	result.Classes = len(finalClasses)
	return out, result, nil
}
