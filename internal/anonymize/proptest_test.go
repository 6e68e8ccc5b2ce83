package anonymize_test

import (
	"bytes"
	"context"
	"encoding/csv"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"privascope/internal/anonymize"
	"privascope/internal/proptest"
	"privascope/internal/proptest/scenario"
)

// minClassSize returns the size of the smallest equivalence class of the
// table over the given quasi-identifiers (0 for an empty table).
func minClassSize(t *testing.T, tab *anonymize.Table, qis []string) int {
	t.Helper()
	classes, err := tab.EquivalenceClasses(context.Background(), qis)
	if err != nil {
		t.Fatalf("EquivalenceClasses: %v", err)
	}
	min := tab.NumRows()
	for _, c := range classes {
		if len(c) < min {
			min = len(c)
		}
	}
	return min
}

// TestPropGeneralizingNeverDecreasesK is the metamorphic k-monotonicity
// property: coarsening a quasi-identifier column with a wider aligned
// binning can only merge equivalence classes, so the minimum class size —
// and with it the k for which the table is k-anonymous — never decreases.
// Width-doubling at origin 0 keeps bins aligned (every 2w-bin is the union
// of two w-bins), which is exactly the generalisation ladder KAnonymize
// climbs.
func TestPropGeneralizingNeverDecreasesK(t *testing.T) {
	proptest.Run(t, func(seed int64, rng *rand.Rand) error {
		tab, qis := scenario.RandomTable(rng, 64)
		column := qis[rng.Intn(len(qis))]
		width := math.Pow(2, float64(rng.Intn(4))) // 1, 2, 4 or 8

		fine, err := anonymize.Spec{column: anonymize.NumericBinning{Width: width}}.Apply(tab)
		if err != nil {
			return err
		}
		coarse, err := anonymize.Spec{column: anonymize.NumericBinning{Width: 2 * width}}.Apply(tab)
		if err != nil {
			return err
		}
		kFine, kCoarse := minClassSize(t, fine, qis), minClassSize(t, coarse, qis)
		if kCoarse < kFine {
			t.Fatalf("seed %d: doubling %s's bin width from %v dropped the minimum class size %d -> %d",
				seed, column, width, kFine, kCoarse)
		}
		return nil
	})
}

// TestPropKAnonymizeReachesK: every equivalence class of the anonymised
// table that contains no suppressed row has at least k rows. (The suppressed
// rows share one fully-suppressed class that may legitimately stay below k —
// their quasi-identifiers are gone entirely.)
func TestPropKAnonymizeReachesK(t *testing.T) {
	proptest.Run(t, func(seed int64, rng *rand.Rand) error {
		tab, qis := scenario.RandomTable(rng, 64)
		k := 2 + rng.Intn(3)
		out, res, err := anonymize.KAnonymize(context.Background(), tab, qis, k)
		if err != nil {
			return err
		}
		suppressed := make(map[int]bool, len(res.SuppressedRows))
		for _, r := range res.SuppressedRows {
			suppressed[r] = true
		}
		classes, err := out.EquivalenceClasses(context.Background(), qis)
		if err != nil {
			return err
		}
		for _, class := range classes {
			if suppressed[class[0]] {
				continue
			}
			if len(class) < k {
				t.Fatalf("seed %d: k=%d but a non-suppressed class has %d rows (widths %v)",
					seed, k, len(class), res.Widths)
			}
		}
		return nil
	})
}

// oddCell draws a cell that stresses what "the same cell" means: NaN under two
// payloads, -0 beside 0, inverted and NaN-ended intervals, categories that
// look like other kinds' group keys, suppressed cells, and hand-built Values
// carrying junk in the fields their kind does not use. It returns the value
// to write and the clean value a table must read back for it.
func oddCell(rng *rand.Rand) (write, read anonymize.Value) {
	nan2 := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)
	clean := []anonymize.Value{
		anonymize.Num(math.NaN()), anonymize.Num(0), anonymize.Num(math.Copysign(0, -1)),
		anonymize.Num(1000), anonymize.Num(math.Inf(1)), anonymize.Num(1e16 + 2),
		anonymize.Interval(30, 40), anonymize.Interval(50, 30), anonymize.Interval(math.NaN(), 1),
		anonymize.Interval(0, math.Copysign(0, -1)),
		anonymize.Cat("numeric:1000"), anonymize.Cat("7:a"), anonymize.Cat("1000"), anonymize.Cat("*"), anonymize.Cat(""),
		anonymize.Suppressed(),
	}
	read = clean[rng.Intn(len(clean))]
	write = read
	if rng.Intn(2) == 0 { // junk in the unused fields, another NaN payload
		switch write.Kind {
		case anonymize.KindNumeric:
			write.Lo, write.Hi, write.Str = 7, nan2, "junk"
			if math.IsNaN(write.Num) {
				write.Num = nan2
			}
		case anonymize.KindInterval:
			write.Num, write.Str = 3, "junk"
			if math.IsNaN(write.Lo) {
				write.Lo = nan2
			}
		case anonymize.KindCategorical:
			write.Num, write.Lo, write.Hi = 1, 2, nan2
		case anonymize.KindSuppressed:
			write.Num, write.Str = 9, "junk"
		}
	}
	return write, read
}

// sameCell is bitwise equality with every NaN equal to every other.
func sameCell(a, b anonymize.Value) bool {
	same := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
	}
	return a.Kind == b.Kind && a.Str == b.Str && same(a.Num, b.Num) && same(a.Lo, b.Lo) && same(a.Hi, b.Hi)
}

// referencePartition is the definition the class builder is checked against:
// rows grouped by the group keys of their cells (length-prefixed when there
// are several, so no category can alias two groups), groups in the order of
// the sorted keys, members ascending.
func referencePartition(rows [][]anonymize.Value, columns []int) [][]int {
	groups := make(map[string][]int)
	for r, row := range rows {
		var key strings.Builder
		for _, c := range columns {
			k := row[c].GroupKey()
			if len(columns) > 1 {
				fmt.Fprintf(&key, "%d:", len(k))
			}
			key.WriteString(k)
		}
		groups[key.String()] = append(groups[key.String()], r)
	}
	var out [][]int
	for _, key := range slices.Sorted(maps.Keys(groups)) {
		out = append(out, groups[key])
	}
	return out
}

// TestPropClassesMatchReferencePartition pins the class builder — rows
// counting-sorted by dictionary ranks — to referencePartition, which knows only
// GroupKey strings: over random tables salted with odd cells, for every
// column sequence, through Table.EquivalenceClasses and a ClassIndex alike.
// Each table is checked as built by AddRow and SetValue, and again as ReadCSV
// reads it from text that spells every other row the other way ("1", "1.0"),
// where two dictionary entries hold one value.
func TestPropClassesMatchReferencePartition(t *testing.T) {
	ctx := context.Background()
	check := func(tab *anonymize.Table, rows [][]anonymize.Value) error {
		names := tab.ColumnNames()
		ix := anonymize.NewClassIndex(tab)
		for _, columns := range [][]int{{}, {0}, {1}, {2}, {0, 1}, {1, 0}, {2, 0}, {0, 1, 2}, {2, 1, 0}} {
			want := referencePartition(rows, columns)
			picked := make([]string, len(columns))
			for i, c := range columns {
				picked[i] = names[c]
			}
			direct, err := tab.EquivalenceClasses(ctx, picked)
			if err != nil {
				return err
			}
			indexed, err := ix.Classes(ctx, picked)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(direct, want) || !reflect.DeepEqual(indexed, want) {
				return fmt.Errorf("classes over %v:\n direct  %v\n indexed %v\n want    %v", picked, direct, indexed, want)
			}
		}
		return nil
	}
	proptest.Run(t, func(seed int64, rng *rand.Rand) error {
		tab, _ := scenario.RandomTable(rng, 64)
		names := tab.ColumnNames()
		rows := make([][]anonymize.Value, tab.NumRows())
		for r := range rows {
			rows[r], _ = tab.Row(r)
		}
		for i := rng.Intn(2 * len(rows)); i > 0; i-- {
			r, c := rng.Intn(len(rows)), rng.Intn(len(names))
			write, _ := oddCell(rng)
			rows[r][c] = write
			if err := tab.SetValue(r, names[c], write); err != nil {
				return err
			}
		}
		if err := check(tab, rows); err != nil {
			return err
		}

		var text bytes.Buffer
		w := csv.NewWriter(&text)
		_ = w.Write(names)
		parsed := make([][]anonymize.Value, len(rows))
		for r, row := range rows {
			cells := make([]string, len(row))
			parsed[r] = make([]anonymize.Value, len(row))
			for c, v := range row {
				if cells[c] = v.String(); r%2 == 1 {
					cells[c] = anonymize.AltText(v)
				}
				parsed[r][c] = anonymize.ParseValue(cells[c])
			}
			_ = w.Write(cells)
		}
		w.Flush()
		read, err := anonymize.ReadCSV(&text, nil)
		if err != nil {
			return err
		}
		if err := check(read, parsed); err != nil {
			return fmt.Errorf("as read from CSV: %w", err)
		}
		return nil
	})
}

// TestPropTableMatchesValueModel drives a table and a plain [][]Value model
// through the same random AddRow / SetValue / Clone / Project / Spec.Apply
// sequence, each step on any table produced so far, the first of them empty
// or read from CSV. Whatever the dictionary
// encoding shares or remaps underneath, after every step every table reads
// back (Value, Row, WriteCSV) exactly what its model holds — so no write to a
// table reached the one it was derived from, or one derived from it.
func TestPropTableMatchesValueModel(t *testing.T) {
	type pair struct {
		table *anonymize.Table
		model [][]anonymize.Value // what the table must read back, row-major
	}
	check := func(p pair) error {
		names := p.table.ColumnNames()
		if p.table.NumRows() != len(p.model) {
			return fmt.Errorf("table has %d rows, model %d", p.table.NumRows(), len(p.model))
		}
		var want bytes.Buffer
		w := csv.NewWriter(&want)
		_ = w.Write(names)
		for r, modelRow := range p.model {
			row, err := p.table.Row(r)
			if err != nil {
				return err
			}
			cells := make([]string, len(names))
			for c, name := range names {
				v, err := p.table.Value(r, name)
				if err != nil {
					return err
				}
				if !sameCell(v, modelRow[c]) || !sameCell(row[c], modelRow[c]) {
					return fmt.Errorf("cell (%d,%s): Value %#v, Row %#v, model %#v", r, name, v, row[c], modelRow[c])
				}
				cells[c] = modelRow[c].String()
			}
			_ = w.Write(cells)
		}
		w.Flush()
		var got bytes.Buffer
		if err := anonymize.WriteCSV(&got, p.table); err != nil {
			return err
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			return fmt.Errorf("WriteCSV:\n%s\nmodel:\n%s", got.Bytes(), want.Bytes())
		}
		return nil
	}
	cloneModel := func(model [][]anonymize.Value) [][]anonymize.Value {
		out := make([][]anonymize.Value, len(model))
		for r, row := range model {
			out[r] = slices.Clone(row)
		}
		return out
	}
	cell := func(rng *rand.Rand) (write, read anonymize.Value) {
		if rng.Intn(3) == 0 {
			return oddCell(rng)
		}
		v := anonymize.Num(float64(rng.Intn(6)))
		return v, v
	}
	generalisers := []anonymize.Generalizer{
		anonymize.NumericBinning{Width: 2},
		anonymize.NumericBinning{Width: 4, Origin: 1},
		anonymize.CategoryMap{Groups: map[string]string{"7:a": "seven", "*": "star"}, SuppressUnknown: true},
		anonymize.SuppressAll{},
	}

	proptest.Run(t, func(seed int64, rng *rand.Rand) error {
		// Every table stays live: a later step may write to a table an earlier
		// one was cloned from, or to the clone.
		live := []*pair{{table: anonymize.MustTable(
			anonymize.Column{Name: "a"}, anonymize.Column{Name: "b"}, anonymize.Column{Name: "c"})}}
		if rng.Intn(2) == 0 {
			// Start from what ReadCSV leaves: no lookup, one value under two texts.
			read, err := anonymize.ReadCSV(strings.NewReader("a,b,c\n1,1.0,7:a\n1.0,1,\"7:a  \"\n"), nil)
			if err != nil {
				return err
			}
			one, cat := anonymize.Num(1), anonymize.Cat("7:a")
			live[0] = &pair{read, [][]anonymize.Value{{one, one, cat}, {one, one, cat}}}
		}
		for step := 0; step < 48; step++ {
			cur := live[rng.Intn(len(live))]
			names := cur.table.ColumnNames()
			switch op := rng.Intn(8); {
			case op < 3 || len(cur.model) == 0: // AddRow
				write, read := make([]anonymize.Value, len(names)), make([]anonymize.Value, len(names))
				for c := range names {
					write[c], read[c] = cell(rng)
				}
				if err := cur.table.AddRow(write...); err != nil {
					return err
				}
				cur.model = append(cur.model, read)
			case op < 5: // SetValue
				r, c := rng.Intn(len(cur.model)), rng.Intn(len(names))
				write, read := cell(rng)
				if err := cur.table.SetValue(r, names[c], write); err != nil {
					return err
				}
				cur.model[r][c] = read
			case op == 5: // Clone
				live = append(live, &pair{cur.table.Clone(), cloneModel(cur.model)})
			case op == 6: // Project onto a random non-empty column sequence
				perm := rng.Perm(len(names))[:1+rng.Intn(len(names))]
				picked := make([]string, len(perm))
				model := make([][]anonymize.Value, len(cur.model))
				for i, c := range perm {
					picked[i] = names[c]
				}
				for r, row := range cur.model {
					for _, c := range perm {
						model[r] = append(model[r], row[c])
					}
				}
				projected, err := cur.table.Project(picked...)
				if err != nil {
					return err
				}
				live = append(live, &pair{projected, model})
			default: // Spec.Apply to one column
				c := rng.Intn(len(names))
				gen := generalisers[rng.Intn(len(generalisers))]
				applied, err := anonymize.Spec{names[c]: gen}.Apply(cur.table)
				if err != nil {
					return err
				}
				model := cloneModel(cur.model)
				for r := range model {
					model[r][c] = gen.Generalize(model[r][c])
				}
				live = append(live, &pair{applied, model})
			}
			for i, p := range live {
				if err := check(*p); err != nil {
					return fmt.Errorf("after step %d, table %d of %d: %w", step, i, len(live), err)
				}
			}
		}
		return nil
	})
}

// TestPropCSVCanonicalFormIsIdempotent: writing a random table to CSV,
// reading it back and writing it again reproduces the first output byte for
// byte — the CSV codec has a canonical form it converges to in one round
// trip.
func TestPropCSVCanonicalFormIsIdempotent(t *testing.T) {
	proptest.Run(t, func(seed int64, rng *rand.Rand) error {
		tab, _ := scenario.RandomTable(rng, 64)

		var first bytes.Buffer
		if err := anonymize.WriteCSV(&first, tab); err != nil {
			return err
		}
		spec := anonymize.ColumnSpec{}
		for _, col := range tab.Columns() {
			spec[col.Name] = col.Role
		}
		back, err := anonymize.ReadCSV(bytes.NewReader(first.Bytes()), spec)
		if err != nil {
			return err
		}
		if back.NumRows() != tab.NumRows() {
			t.Fatalf("seed %d: round trip changed row count %d -> %d", seed, tab.NumRows(), back.NumRows())
		}
		var second bytes.Buffer
		if err := anonymize.WriteCSV(&second, back); err != nil {
			return err
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("seed %d: CSV canonical form is not idempotent:\nfirst:\n%s\nsecond:\n%s",
				seed, first.String(), second.String())
		}
		return nil
	})
}
