package anonymize

import (
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
)

// Table accessors, checks and value helpers only the tests use.

// WriteCSV writes the table as CSV, rendering cells with Value.String.
func WriteCSV(w io.Writer, t *Table) error {
	writer := csv.NewWriter(w)
	if err := writer.Write(t.ColumnNames()); err != nil {
		return fmt.Errorf("anonymize: writing CSV header: %w", err)
	}
	cells := make([]string, len(t.cols))
	for r := 0; r < t.nrows; r++ {
		for i := range t.cols {
			cells[i] = t.cols[i].at(r).String()
		}
		if err := writer.Write(cells); err != nil {
			return fmt.Errorf("anonymize: writing CSV row %d: %w", r, err)
		}
	}
	writer.Flush()
	if err := writer.Error(); err != nil {
		return fmt.Errorf("anonymize: flushing CSV: %w", err)
	}
	return nil
}

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

// SatisfiesK reports whether the dataset meets k-anonymity according to the
// report's smallest equivalence class.
func (r ReidentReport) SatisfiesK(k int) bool {
	if k <= 0 {
		return false
	}
	if len(r.Records) == 0 {
		return true
	}
	return r.SmallestClass >= k
}

// Columns returns a copy of the column definitions.
func (t *Table) Columns() []Column { return append([]Column(nil), t.columns...) }

// Column returns the definition of the named column.
func (t *Table) Column(name string) (Column, bool) {
	if i, ok := t.index[name]; ok {
		return t.columns[i], true
	}
	return Column{}, false
}

// ColumnsByRole returns the names of columns with the given role, in order.
func (t *Table) ColumnsByRole(role ColumnRole) []string {
	var out []string
	for _, c := range t.columns {
		if c.Role == role {
			out = append(out, c.Name)
		}
	}
	return out
}

// ColumnValues returns a copy of the named column's cells in row order.
func (t *Table) ColumnValues(name string) ([]Value, bool) {
	i, ok := t.index[name]
	if !ok {
		return nil, false
	}
	col := &t.cols[i]
	out := make([]Value, t.nrows)
	for r := range out {
		out[r] = col.at(r)
	}
	return out, true
}

// NumColumns returns the number of columns.
func (t *Table) NumColumns() int { return len(t.columns) }

// Row returns a copy of the row's values.
func (t *Table) Row(row int) ([]Value, error) {
	if row < 0 || row >= t.nrows {
		return nil, fmt.Errorf("anonymize: row %d out of range [0,%d)", row, t.nrows)
	}
	out := make([]Value, len(t.cols))
	for i := range t.cols {
		out[i] = t.cols[i].at(row)
	}
	return out, nil
}

// AcceptableWithin reports whether every compared column's mean shifted by at
// most maxMeanShift. It is the simple accept/reject gate the paper sketches
// ("If a technique requires too much data removal and utility is shown to be
// likely adversely affected, the technique used would clearly be not
// appropriate").
func (u UtilityReport) AcceptableWithin(maxMeanShift float64) bool {
	for _, c := range u.Columns {
		if c.MeanShift() > maxMeanShift {
			return false
		}
	}
	return true
}

// GroupKey returns a canonical string used when grouping rows into
// equivalence classes: values with the same group key are indistinguishable
// to an observer who sees this cell.
func (v Value) GroupKey() string { return string(v.appendGroupKey(nil)) }

// Equal reports exact equality of two values.
func (v Value) Equal(other Value) bool { return v == other }

// Float returns the fraction as a float64; zero when the denominator is zero.
func (f Fraction) Float() float64 {
	if f.Den == 0 {
		return 0
	}
	return float64(f.Num) / float64(f.Den)
}
