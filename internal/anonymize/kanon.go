package anonymize

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// IsKAnonymous reports whether every equivalence class induced by the
// quasi-identifier columns has at least k members (Sweeney's k-anonymity).
// Rows whose quasi-identifiers are all suppressed count as one shared class.
func IsKAnonymous(ctx context.Context, t *Table, quasiIdentifiers []string, k int) (bool, error) {
	if k <= 0 {
		return false, errors.New("anonymize: k must be positive")
	}
	if t.NumRows() == 0 {
		return true, nil
	}
	classes, err := t.EquivalenceClasses(ctx, quasiIdentifiers)
	if err != nil {
		return false, err
	}
	return smallestClass(classes) >= k, nil
}

// smallestClass returns the size of the smallest class, or math.MaxInt when
// there is none.
func smallestClass(classes [][]int) int {
	smallest := math.MaxInt
	for _, class := range classes {
		smallest = min(smallest, len(class))
	}
	return smallest
}

// DistinctLDiversity reports whether every equivalence class induced by the
// quasi-identifiers contains at least l distinct values of the sensitive
// column (distinct l-diversity, Machanavajjhala et al.). The paper contrasts
// the value risk that k-anonymity leaves behind with what l-diversity would
// remove; this check lets the analysis make that comparison concrete.
func DistinctLDiversity(ctx context.Context, t *Table, quasiIdentifiers []string, sensitive string, l int) (bool, error) {
	if l <= 0 {
		return false, errors.New("anonymize: l must be positive")
	}
	idx, ok := t.ColumnIndex(sensitive)
	if !ok {
		return false, fmt.Errorf("anonymize: unknown sensitive column %q", sensitive)
	}
	classes, err := t.EquivalenceClasses(ctx, quasiIdentifiers)
	if err != nil {
		return false, err
	}
	codes := t.cols[idx].codes
	rank, _ := t.cols[idx].ranks(false)
	for _, class := range classes {
		distinct := make(map[int32]bool)
		for _, r := range class {
			distinct[rank[codes[r]]] = true
		}
		if len(distinct) < l {
			return false, nil
		}
	}
	return true, nil
}

// KAnonymizeOptions configures the k-anonymiser.
type KAnonymizeOptions struct {
	// InitialWidths seeds the bin width per numeric quasi-identifier; when a
	// column is missing, the width starts at 1.
	InitialWidths map[string]float64
	// MaxDoublings bounds how often each width may double before the
	// remaining undersized classes are suppressed; default 20.
	MaxDoublings int
}

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
// undersized classes after MaxDoublings rounds have their quasi-identifiers
// suppressed. Categorical quasi-identifiers are left as-is during widening
// and suppressed with the rest in the fallback.
//
// The input table is not modified. Every round's class building polls ctx, so
// a cancelled context aborts the search with ctx.Err().
func KAnonymize(ctx context.Context, t *Table, quasiIdentifiers []string, k int, opts KAnonymizeOptions) (*Table, KAnonymizeResult, error) {
	if k <= 0 {
		return nil, KAnonymizeResult{}, errors.New("anonymize: k must be positive")
	}
	for _, q := range quasiIdentifiers {
		if _, ok := t.ColumnIndex(q); !ok {
			return nil, KAnonymizeResult{}, fmt.Errorf("anonymize: unknown quasi-identifier %q", q)
		}
	}
	if opts.MaxDoublings <= 0 {
		opts.MaxDoublings = 20
	}

	widths := make(map[string]float64, len(quasiIdentifiers))
	for _, q := range quasiIdentifiers {
		widths[q] = 1
		if w := opts.InitialWidths[q]; w > 0 {
			widths[q] = w
		}
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
		if smallestClass(classes) >= k || round >= opts.MaxDoublings {
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
