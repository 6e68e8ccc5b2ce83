// Package anonymize provides the dataset and pseudonymisation substrate the
// paper's value-risk analysis (Section III-B) is built on: typed record
// tables, generalisation, k-anonymisation, l-diversity checking, utility
// metrics, and the per-record value-risk computation
// risk(r, f) = frequency(f) / size(s) that produces Table I.
//
// The paper does not propose new anonymisation algorithms — it models the
// risks that remain after a chosen technique is applied. This package
// therefore implements conventional global-recoding k-anonymisation
// (generalisation plus suppression) so those risks can be produced and
// analysed end to end without external tools such as ARX or CAT.
package anonymize

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ValueKind discriminates the kinds of cell values a table can hold.
type ValueKind int

// Value kinds. Interval values are produced by generalising numeric values;
// Suppressed marks a cell removed by the anonymiser.
const (
	KindNumeric ValueKind = iota + 1
	KindInterval
	KindCategorical
	KindSuppressed
)

// String returns the lower-case kind name.
func (k ValueKind) String() string {
	switch k {
	case KindNumeric:
		return "numeric"
	case KindInterval:
		return "interval"
	case KindCategorical:
		return "categorical"
	case KindSuppressed:
		return "suppressed"
	default:
		return "kind(" + strconv.Itoa(int(k)) + ")"
	}
}

// Value is one table cell. Values are small immutable value types.
type Value struct {
	Kind ValueKind
	// Num holds the numeric value for KindNumeric.
	Num float64
	// Lo and Hi hold the inclusive-exclusive bounds for KindInterval.
	Lo, Hi float64
	// Str holds the category for KindCategorical.
	Str string
}

// Num returns a numeric value.
func Num(x float64) Value { return Value{Kind: KindNumeric, Num: x} }

// Interval returns a generalised numeric value covering [lo, hi).
func Interval(lo, hi float64) Value { return Value{Kind: KindInterval, Lo: lo, Hi: hi} }

// Cat returns a categorical value.
func Cat(s string) Value { return Value{Kind: KindCategorical, Str: s} }

// Suppressed returns a suppressed (removed) cell.
func Suppressed() Value { return Value{Kind: KindSuppressed} }

// IsSuppressed reports whether the cell has been suppressed.
func (v Value) IsSuppressed() bool { return v.Kind == KindSuppressed }

// String renders the value the way the paper's Table I does: numbers plainly,
// intervals as "lo-hi", categories verbatim, suppressed cells as "*".
func (v Value) String() string { return string(v.appendText(nil)) }

func (v Value) appendText(b []byte) []byte {
	switch v.Kind {
	case KindNumeric:
		return strconv.AppendFloat(b, v.Num, 'f', -1, 64)
	case KindInterval:
		b = strconv.AppendFloat(b, v.Lo, 'f', -1, 64)
		b = append(b, '-')
		return strconv.AppendFloat(b, v.Hi, 'f', -1, 64)
	case KindCategorical:
		return append(b, v.Str...)
	case KindSuppressed:
		return append(b, '*')
	default:
		return append(b, '?')
	}
}

// GroupKey returns a canonical string used when grouping rows into
// equivalence classes: values with the same group key are indistinguishable
// to an observer who sees this cell.
func (v Value) GroupKey() string { return string(v.appendGroupKey(nil)) }

func (v Value) appendGroupKey(b []byte) []byte {
	if v.Kind == KindSuppressed {
		return append(b, '*')
	}
	b = append(b, v.Kind.String()...)
	b = append(b, ':')
	return v.appendText(b)
}

// normalized returns the value with everything GroupKey does not render
// cleared — the fields its kind does not use, and NaN payloads — so that two
// values have the same group key exactly when their normalised forms have the
// same bits. -0 and 0 render differently and stay apart.
func (v Value) normalized() Value {
	canon := func(x float64) float64 {
		if x != x {
			return math.NaN()
		}
		return x
	}
	switch v.Kind {
	case KindNumeric:
		return Value{Kind: KindNumeric, Num: canon(v.Num)}
	case KindInterval:
		return Value{Kind: KindInterval, Lo: canon(v.Lo), Hi: canon(v.Hi)}
	case KindCategorical:
		return Value{Kind: KindCategorical, Str: v.Str}
	default:
		return Value{Kind: v.Kind}
	}
}

// Midpoint returns a representative numeric value: the number itself, the
// interval midpoint, or NaN for categorical/suppressed cells. It is used by
// the utility metrics.
func (v Value) Midpoint() float64 {
	switch v.Kind {
	case KindNumeric:
		return v.Num
	case KindInterval:
		return (v.Lo + v.Hi) / 2
	default:
		return math.NaN()
	}
}

// Close reports whether two values are "close enough" to count as the same
// observation when computing frequencies (Section III-B: "A user may specify
// a range so that frequency(f) is the number of values in s which are close
// enough to the original value"). Numeric values are close when they differ
// by at most closeness; intervals are close when they overlap after being
// widened by closeness; categorical values must match exactly; suppressed
// values are never close to anything.
func (v Value) Close(other Value, closeness float64) bool {
	if v.Kind == KindSuppressed || other.Kind == KindSuppressed {
		return false
	}
	if v.Kind == KindCategorical || other.Kind == KindCategorical {
		return v.Kind == other.Kind && v.Str == other.Str
	}
	lo1, hi1 := v.bounds()
	lo2, hi2 := other.bounds()
	return lo1-closeness <= hi2 && lo2-closeness <= hi1
}

func (v Value) bounds() (float64, float64) {
	if v.Kind == KindInterval {
		return v.Lo, v.Hi
	}
	return v.Num, v.Num
}

// Equal reports exact equality of two values.
func (v Value) Equal(other Value) bool { return v == other }

// ParseValue parses a cell from text: "lo-hi" becomes an interval, a number
// becomes numeric, "*" or an empty cell becomes suppressed, anything else
// categorical. Empty cells map to suppressed rather than Cat("") so that a
// missing value is treated as removed data and — unlike an empty category,
// which renders as a blank CSV cell that encoding/csv cannot round-trip when
// a whole record is blank — survives a write/read cycle.
func ParseValue(s string) Value {
	s = strings.TrimSpace(s)
	if s == "*" || s == "" {
		return Suppressed()
	}
	if n, err := strconv.ParseFloat(s, 64); err == nil {
		return Num(n)
	}
	if idx := strings.Index(s, "-"); idx > 0 {
		lo, err1 := strconv.ParseFloat(strings.TrimSpace(s[:idx]), 64)
		hi, err2 := strconv.ParseFloat(strings.TrimSpace(s[idx+1:]), 64)
		if err1 == nil && err2 == nil {
			return Interval(lo, hi)
		}
	}
	return Cat(s)
}

// Fraction is an exact probability as reported in the paper's Table I
// (e.g. "2/4", "3/4", "2/2").
type Fraction struct {
	Num, Den int
}

// Float returns the fraction as a float64; zero when the denominator is zero.
func (f Fraction) Float() float64 {
	if f.Den == 0 {
		return 0
	}
	return float64(f.Num) / float64(f.Den)
}

// String renders the fraction exactly as Table I does.
func (f Fraction) String() string { return fmt.Sprintf("%d/%d", f.Num, f.Den) }
