package anonymize

import (
	"fmt"
	"math"
)

// Generalizer maps a cell value to a less precise value. Generalisation is
// the primary mechanism of k-anonymisation: quasi-identifier values are
// coarsened until enough records become indistinguishable.
type Generalizer interface {
	// Generalize coarsens a single value.
	Generalize(v Value) Value
	// Describe returns a short human-readable description of the
	// generalisation applied, for reports.
	Describe() string
}

// NumericBinning generalises numeric values into fixed-width intervals
// aligned to Origin, e.g. Width 10 and Origin 0 maps 34 to the interval
// 30-40 (as the Age column of the paper's Table I).
type NumericBinning struct {
	Width  float64
	Origin float64
}

// Generalize implements Generalizer. Interval inputs are re-binned using
// their midpoint; categorical and suppressed values pass through unchanged.
func (n NumericBinning) Generalize(v Value) Value {
	if n.Width <= 0 {
		return v
	}
	var x float64
	switch v.Kind {
	case KindNumeric:
		x = v.Num
	case KindInterval:
		x = v.Midpoint()
	default:
		return v
	}
	lo := n.Origin + math.Floor((x-n.Origin)/n.Width)*n.Width
	return Interval(lo, lo+n.Width)
}

// Describe implements Generalizer.
func (n NumericBinning) Describe() string {
	return fmt.Sprintf("numeric binning (width %v)", n.Width)
}

var _ Generalizer = NumericBinning{}

// CategoryMap generalises categorical values by mapping each category to a
// broader group; unmapped categories are suppressed when SuppressUnknown is
// set, otherwise passed through.
type CategoryMap struct {
	Groups          map[string]string
	SuppressUnknown bool
}

// Generalize implements Generalizer.
func (c CategoryMap) Generalize(v Value) Value {
	if v.Kind != KindCategorical {
		return v
	}
	if group, ok := c.Groups[v.Str]; ok {
		return Cat(group)
	}
	if c.SuppressUnknown {
		return Suppressed()
	}
	return v
}

// Describe implements Generalizer.
func (c CategoryMap) Describe() string {
	return fmt.Sprintf("category map (%d groups)", len(c.Groups))
}

var _ Generalizer = CategoryMap{}

// SuppressAll replaces every value with a suppressed cell. It is the most
// aggressive generalisation step and the fallback of the k-anonymiser.
type SuppressAll struct{}

// Generalize implements Generalizer.
func (SuppressAll) Generalize(Value) Value { return Suppressed() }

// Describe implements Generalizer.
func (SuppressAll) Describe() string { return "suppression" }

var _ Generalizer = SuppressAll{}

// Spec maps column names to the generaliser applied to them. Columns not in
// the spec are left untouched.
type Spec map[string]Generalizer

// Apply returns a new table with the spec's generalisers applied column-wise.
// The input table is not modified. A generaliser is called once per dictionary
// entry of its column — once per distinct cell the column has held, not once
// per row — and the rows' codes are remapped to the generalised dictionary.
func (s Spec) Apply(t *Table) (*Table, error) {
	out := t.Clone()
	for name, gen := range s {
		idx, ok := out.ColumnIndex(name)
		if !ok {
			return nil, fmt.Errorf("anonymize: generalisation spec references unknown column %q", name)
		}
		from := &out.cols[idx]
		to := column{codes: from.codes}
		remap := make([]int32, len(from.dict))
		for code, v := range from.dict {
			remap[code] = to.intern(gen.Generalize(v))
		}
		for r, code := range to.codes {
			to.codes[r] = remap[code]
		}
		out.cols[idx] = to
	}
	return out, nil
}
