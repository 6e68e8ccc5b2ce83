package anonymize

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// ValueRisk is the per-record outcome of the paper's value-risk computation
// (Section III-B): the marginal probability that an adversary who can see
// the visible fields of the record's equivalence set pins the target field's
// true value to within the configured closeness.
type ValueRisk struct {
	// Row is the record's index in the analysed table.
	Row int
	// SetSize is the size of the record's equivalence set s.
	SetSize int
	// Frequency is frequency(f): the number of records in s whose target
	// value is close enough to this record's value.
	Frequency int
	// Probability is Frequency / SetSize.
	Probability float64
}

// Fraction returns the risk as the exact fraction the paper's Table I prints
// (e.g. 2/4).
func (v ValueRisk) Fraction() Fraction { return Fraction{Num: v.Frequency, Den: v.SetSize} }

// String renders the risk as its fraction.
func (v ValueRisk) String() string { return v.Fraction().String() }

// ValueRiskOptions configures the computation.
type ValueRiskOptions struct {
	// VisibleColumns are the fields the adversary has already read
	// (the paper's fieldsread); all other columns are masked when the data
	// is divided into equivalence sets.
	VisibleColumns []string
	// TargetColumn is the sensitive field f whose value is being inferred.
	TargetColumn string
	// Closeness is the range within which two target values count as the
	// same observation (5 kg in the paper's weight example). Zero means
	// exact equality.
	Closeness float64
	// Index, when set, supplies (and caches) the equivalence classes instead
	// of recomputing them. It must index the analysed table.
	Index *ClassIndex
}

// ValueRisks computes the value risk of every record in the table following
// the three steps of Section III-B:
//
//  1. the visible (already-read) fields form the input field set;
//  2. the remaining fields are masked and the records are divided into sets
//     of apparently identical records (equivalence classes on the visible
//     fields);
//  3. for each record r, risk(r, f) = frequency(f) / size(s), where
//     frequency counts the records in r's set whose value of f lies within
//     the closeness range of r's value.
//
// When no columns are visible, every record falls into one set covering the
// whole table. Class building polls ctx every few thousand rows and scoring
// polls it between equivalence sets, so a cancelled context aborts the
// computation promptly with ctx.Err().
func ValueRisks(ctx context.Context, t *Table, opts ValueRiskOptions) ([]ValueRisk, error) {
	if t == nil {
		return nil, errors.New("anonymize: table must not be nil")
	}
	targetIdx, ok := t.ColumnIndex(opts.TargetColumn)
	if !ok {
		return nil, fmt.Errorf("anonymize: unknown target column %q", opts.TargetColumn)
	}
	if opts.Closeness < 0 {
		return nil, errors.New("anonymize: closeness must not be negative")
	}
	index := opts.Index
	if index == nil {
		index = NewClassIndex(t)
	} else if index.Table() != t {
		return nil, errors.New("anonymize: class index was built for a different table")
	}
	classes, err := index.Classes(ctx, opts.VisibleColumns)
	if err != nil {
		return nil, err
	}

	risks := make([]ValueRisk, t.NumRows())
	scorer := newSetScorer(&t.cols[targetIdx], opts.Closeness)
	for i, class := range classes {
		if i&classCancelCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		scorer.score(risks, class)
	}
	return risks, nil
}

// classCancelCheckMask spaces ctx polls on the scoring loop: a singleton set
// is scored in nanoseconds, so a poll per set would be measurable.
const classCancelCheckMask = 255

// setScorer scores equivalence sets against one target column: a set is
// reduced to how many of its rows hold each distinct target value, a
// frequency is computed once per distinct value present, and the rows read
// theirs off. Distinct values are numbered by the dictionary's ranks, which
// entries holding one value share. Its scratch is reused from set to set.
type setScorer struct {
	target    *column
	closeness float64
	rank      []int32
	// count[k] is the number of the current set's rows holding the value of
	// rank k (zero between sets), freq[k] the frequency computed for it.
	count, freq []int
	// present holds one code for each rank the current set has.
	present []int32
	// los and his are the bounds of the numeric and interval values present.
	los, his []bound
}

func newSetScorer(target *column, closeness float64) *setScorer {
	rank, distinct := target.ranks(false)
	return &setScorer{target: target, closeness: closeness, rank: rank,
		count: make([]int, distinct), freq: make([]int, distinct)}
}

// bound is one end of a distinct value's range, held by n rows. In a sorted
// list n is the number of rows at earlier bounds; a last element has the total.
type bound struct {
	at float64
	n  int
}

// score computes the value risk of every record of one equivalence set and
// writes the results into the rows' slots of risks, with exactly the
// frequencies of the pairwise scan (scoreClassQuadratic):
//
//   - categorical values are close only to equal categorical values, so a
//     category's frequency is its own count;
//   - suppressed cells (and values with a NaN bound) are close to nothing
//     and count for nothing;
//   - the remaining values widen to bounds [lo, hi], and Close(i, j) is
//     lo_i-c <= hi_j && lo_j-c <= hi_i — so with both bound lists sorted,
//     frequency(i) is the total minus two binary-search exclusion counts,
//     each evaluating the same float expression Close does (the excluded
//     sets cannot overlap while every interval satisfies lo <= hi; a set
//     holding an inverted interval goes to the pairwise scan).
//
// Without the sorted lists a single million-row equivalence set — the "no
// visible fields" scenario of every large dataset — would cost 10¹²
// comparisons.
func (s *setScorer) score(risks []ValueRisk, class []int) {
	codes := s.target.codes
	s.present = s.present[:0]
	for _, r := range class {
		k := s.rank[codes[r]]
		if s.count[k] == 0 {
			s.present = append(s.present, codes[r])
		}
		s.count[k]++
	}
	if s.frequencies() {
		size := len(class)
		for _, r := range class {
			freq := s.freq[s.rank[codes[r]]]
			risks[r] = ValueRisk{Row: r, SetSize: size, Frequency: freq, Probability: float64(freq) / float64(size)}
		}
	} else {
		// An inverted interval: exactness over speed.
		scoreClassQuadratic(risks, class, s.target, s.closeness)
	}
	for _, code := range s.present {
		s.count[s.rank[code]] = 0
	}
}

// frequencies fills freq for the values present from their counts. It reports
// false, with freq unusable, when one of them is an inverted interval.
func (s *setScorer) frequencies() bool {
	const pending = -1 // a frequency the bound lists will answer
	dict := s.target.dict
	s.los, s.his = s.los[:0], s.his[:0]
	for _, code := range s.present {
		k := s.rank[code]
		n := s.count[k]
		switch v := dict[code]; v.Kind {
		case KindSuppressed:
			s.freq[k] = 0
		case KindCategorical:
			s.freq[k] = n
		default:
			lo, hi := v.bounds()
			if lo > hi {
				return false
			}
			if math.IsNaN(lo) || math.IsNaN(hi) {
				s.freq[k] = 0
				continue
			}
			s.freq[k] = pending
			s.los = append(s.los, bound{lo, n})
			s.his = append(s.his, bound{hi, n})
		}
	}
	s.los, s.his = sortBounds(s.los), sortBounds(s.his)
	last := len(s.los) - 1
	bounded := s.los[last].n
	for _, code := range s.present {
		k := s.rank[code]
		if s.freq[k] != pending {
			continue
		}
		// Both exclusion counts evaluate the exact float expressions Close
		// uses — hi_j < fl(lo_i-c) and fl(lo_j-c) > hi_i — so rounding cannot
		// make this path disagree with the pairwise scan. fl(x-c) is monotone
		// in x, so the sorted order of los carries over to the searched
		// predicate.
		lo, hi := dict[code].bounds()
		below := s.his[sort.Search(last, func(i int) bool { return s.his[i].at >= lo-s.closeness })].n
		above := bounded - s.los[sort.Search(last, func(i int) bool { return s.los[i].at-s.closeness > hi })].n
		s.freq[k] = bounded - below - above
	}
	return true
}

// sortBounds orders the list by position, turns each n into the number of
// rows before it and appends an element carrying the total.
func sortBounds(list []bound) []bound {
	slices.SortFunc(list, func(a, b bound) int { return cmp.Compare(a.at, b.at) })
	list = append(list, bound{})
	before := 0
	for i := range list {
		list[i].n, before = before, before+list[i].n
	}
	return list
}

// scoreClassQuadratic is the direct pairwise scan; the reference semantics
// the scorer must reproduce.
func scoreClassQuadratic(risks []ValueRisk, class []int, target *column, closeness float64) {
	size := len(class)
	values := make([]Value, size)
	for i, r := range class {
		values[i] = target.at(r)
	}
	for i, r := range class {
		freq := 0
		for j := range values {
			if values[i].Close(values[j], closeness) {
				freq++
			}
		}
		risks[r] = ValueRisk{Row: r, SetSize: size, Frequency: freq, Probability: float64(freq) / float64(size)}
	}
}

// CountViolations returns how many records' value risk meets or exceeds the
// confidence threshold (e.g. 0.9 for the paper's "at least 90% confidence"
// policy). It is the "Violations" row of Table I.
func CountViolations(risks []ValueRisk, confidenceThreshold float64) int {
	count := 0
	for _, r := range risks {
		if r.Probability >= confidenceThreshold {
			count++
		}
	}
	return count
}

// MaxRisk returns the highest probability among the risks, or zero when the
// slice is empty.
func MaxRisk(risks []ValueRisk) float64 {
	max := 0.0
	for _, r := range risks {
		if r.Probability > max {
			max = r.Probability
		}
	}
	return max
}
