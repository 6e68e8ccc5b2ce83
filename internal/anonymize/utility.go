package anonymize

import (
	"fmt"
	"math"
)

// ColumnUtility compares one numeric column before and after
// pseudonymisation. The paper's Section III-B proposes exactly this check:
// "The resulting pseudonymised dataset ... can be tested for utility, by
// comparing statistical qualities like means and variances between the
// original data and the pseudonymised data."
type ColumnUtility struct {
	Column string
	// OriginalMean and AnonymisedMean are the column means; interval cells
	// contribute their midpoints, suppressed cells are excluded.
	OriginalMean   float64
	AnonymisedMean float64
	// OriginalVariance and AnonymisedVariance are the population variances.
	OriginalVariance   float64
	AnonymisedVariance float64
	// MeanAbsoluteError is the mean |original - anonymised| over rows where
	// both cells are usable.
	MeanAbsoluteError float64
	// SuppressedFraction is the fraction of cells suppressed in the
	// anonymised column.
	SuppressedFraction float64
}

// MeanShift returns the absolute difference between the two means.
func (c ColumnUtility) MeanShift() float64 {
	return math.Abs(c.OriginalMean - c.AnonymisedMean)
}

// VarianceShift returns the absolute difference between the two variances.
func (c ColumnUtility) VarianceShift() float64 {
	return math.Abs(c.OriginalVariance - c.AnonymisedVariance)
}

// UtilityReport aggregates per-column utility comparisons.
type UtilityReport struct {
	Columns []ColumnUtility
	// SuppressionRate is the fraction of all compared cells suppressed in
	// the anonymised table.
	SuppressionRate float64
}

// Column returns the utility entry for the named column.
func (u UtilityReport) Column(name string) (ColumnUtility, bool) {
	for _, c := range u.Columns {
		if c.Column == name {
			return c, true
		}
	}
	return ColumnUtility{}, false
}

// CompareUtility compares the named numeric columns of the original and
// anonymised tables, which must have the same number of rows.
func CompareUtility(original, anonymised *Table, columns []string) (UtilityReport, error) {
	if original.NumRows() != anonymised.NumRows() {
		return UtilityReport{}, fmt.Errorf("anonymize: row count mismatch: %d vs %d",
			original.NumRows(), anonymised.NumRows())
	}
	report := UtilityReport{}
	totalCells, suppressedCells := 0, 0
	for _, column := range columns {
		oi, ok := original.ColumnIndex(column)
		if !ok {
			return UtilityReport{}, fmt.Errorf("anonymize: unknown column %q in original table", column)
		}
		ai, ok := anonymised.ColumnIndex(column)
		if !ok {
			return UtilityReport{}, fmt.Errorf("anonymize: unknown column %q in anonymised table", column)
		}
		cu := ColumnUtility{Column: column}
		origCol, anonCol := &original.cols[oi], &anonymised.cols[ai]
		var origVals, anonVals []float64
		var absErrSum float64
		var pairCount, suppressed int
		for r := 0; r < original.NumRows(); r++ {
			ov, av := origCol.at(r), anonCol.at(r)
			totalCells++
			if av.IsSuppressed() {
				suppressedCells++
				suppressed++
			}
			om, am := ov.Midpoint(), av.Midpoint()
			if !math.IsNaN(om) {
				origVals = append(origVals, om)
			}
			if !math.IsNaN(am) {
				anonVals = append(anonVals, am)
			}
			if !math.IsNaN(om) && !math.IsNaN(am) {
				absErrSum += math.Abs(om - am)
				pairCount++
			}
		}
		cu.OriginalMean, cu.OriginalVariance = meanVariance(origVals)
		cu.AnonymisedMean, cu.AnonymisedVariance = meanVariance(anonVals)
		if pairCount > 0 {
			cu.MeanAbsoluteError = absErrSum / float64(pairCount)
		}
		if anonymised.NumRows() > 0 {
			cu.SuppressedFraction = float64(suppressed) / float64(anonymised.NumRows())
		}
		report.Columns = append(report.Columns, cu)
	}
	if totalCells > 0 {
		report.SuppressionRate = float64(suppressedCells) / float64(totalCells)
	}
	return report, nil
}

// meanVariance returns the mean and population variance of the values.
func meanVariance(values []float64) (float64, float64) {
	if len(values) == 0 {
		return 0, 0
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	mean := sum / float64(len(values))
	varSum := 0.0
	for _, v := range values {
		d := v - mean
		varSum += d * d
	}
	return mean, varSum / float64(len(values))
}

// GeneralizationLoss computes the normalised certainty penalty (NCP) of the
// anonymised table over the given numeric columns: for each cell, the width
// of its interval divided by the column's value range in the original table
// (suppressed cells count as full loss). The result is averaged over all
// cells; 0 means no information was lost, 1 means everything was.
func GeneralizationLoss(original, anonymised *Table, columns []string) (float64, error) {
	if original.NumRows() != anonymised.NumRows() {
		return 0, fmt.Errorf("anonymize: row count mismatch: %d vs %d", original.NumRows(), anonymised.NumRows())
	}
	if original.NumRows() == 0 || len(columns) == 0 {
		return 0, nil
	}
	total := 0.0
	cells := 0
	for _, column := range columns {
		oi, ok := original.ColumnIndex(column)
		if !ok {
			return 0, fmt.Errorf("anonymize: unknown column %q", column)
		}
		ai, ok := anonymised.ColumnIndex(column)
		if !ok {
			return 0, fmt.Errorf("anonymize: unknown column %q in anonymised table", column)
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, code := range original.cols[oi].codes {
			m := original.cols[oi].dict[code].Midpoint()
			if !math.IsNaN(m) {
				lo, hi = min(lo, m), max(hi, m)
			}
		}
		rangeWidth := hi - lo
		for _, code := range anonymised.cols[ai].codes {
			v := anonymised.cols[ai].dict[code]
			cells++
			switch v.Kind {
			case KindSuppressed:
				total += 1
			case KindInterval:
				if rangeWidth > 0 {
					total += min((v.Hi-v.Lo)/rangeWidth, 1)
				} else {
					total += 1
				}
			default:
				// Exact values lose nothing.
			}
		}
	}
	if cells == 0 {
		return 0, nil
	}
	return total / float64(cells), nil
}
