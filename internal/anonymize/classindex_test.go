package anonymize

import (
	"bytes"
	"context"
	"encoding/csv"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"privascope/internal/proptest"
)

var ctx = context.Background()

// classTestTable builds a deterministic mixed-kind table.
func classTestTable(rows int) *Table {
	rng := rand.New(rand.NewSource(7))
	countries := []string{"de", "fr", "uk", "es", "it", "nl", "pl", "se"}
	t := MustTable(
		Column{Name: "age", Role: RoleQuasiIdentifier},
		Column{Name: "height", Role: RoleQuasiIdentifier},
		Column{Name: "country", Role: RoleQuasiIdentifier},
		Column{Name: "weight", Role: RoleSensitive},
	)
	for i := 0; i < rows; i++ {
		age := Num(float64(18 + rng.Intn(70)))
		if rng.Intn(50) == 0 {
			age = Suppressed()
		}
		t.MustAddRow(
			age,
			Interval(float64(150+10*rng.Intn(5)), float64(160+10*rng.Intn(5))),
			Cat(countries[rng.Intn(len(countries))]),
			Num(float64(45+rng.Intn(90))),
		)
	}
	return t
}

func TestClassIndexCachesPartitions(t *testing.T) {
	tbl := classTestTable(100)
	ix := NewClassIndex(tbl)
	first, err := ix.Classes(ctx, []string{"age", "height"})
	if err != nil {
		t.Fatal(err)
	}
	second, err := ix.Classes(ctx, []string{"age", "height"})
	if err != nil {
		t.Fatal(err)
	}
	if &first[0][0] != &second[0][0] {
		t.Error("repeated Classes call did not return the cached partition")
	}
	if ix.Hits() != 1 || ix.Misses() != 1 {
		t.Errorf("hits=%d misses=%d, want 1 and 1", ix.Hits(), ix.Misses())
	}
	// A different column order is a different partition order: distinct entry.
	if _, err := ix.Classes(ctx, []string{"height", "age"}); err != nil {
		t.Fatal(err)
	}
	if ix.Misses() != 2 {
		t.Errorf("misses=%d after reordered columns, want 2", ix.Misses())
	}
	if _, err := ix.Classes(ctx, []string{"ghost"}); err == nil {
		t.Error("unknown column accepted")
	}
}

func TestClassIndexEmptyAndDegenerateTables(t *testing.T) {
	empty := MustTable(Column{Name: "a"})
	ix := NewClassIndex(empty)
	classes, err := ix.Classes(ctx, []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != 0 {
		t.Errorf("empty table produced %d classes", len(classes))
	}

	single := MustTable(Column{Name: "a"})
	single.MustAddRow(Num(1))
	classes, err = NewClassIndex(single).Classes(ctx, []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != 1 || len(classes[0]) != 1 || classes[0][0] != 0 {
		t.Errorf("single-row table classes = %v", classes)
	}
}

func TestValueRisksRejectsForeignIndex(t *testing.T) {
	a := classTestTable(10)
	b := classTestTable(10)
	_, err := ValueRisks(ctx, a, ValueRiskOptions{
		TargetColumn: "weight",
		Index:        NewClassIndex(b),
	})
	if err == nil {
		t.Error("index over a different table accepted")
	}
}

func TestReidentificationRiskIndexedMatchesUnindexed(t *testing.T) {
	tbl := classTestTable(2000)
	anon, err := Spec{"age": NumericBinning{Width: 10}}.Apply(tbl)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ReidentificationRisk(ctx, anon, []string{"age", "country"}, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	ix := NewClassIndex(anon)
	got, err := ReidentificationRiskIndexed(ctx, ix, []string{"age", "country"}, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("indexed re-identification risk diverges from unindexed")
	}
	if _, err := ReidentificationRiskIndexed(ctx, nil, []string{"age"}, 0.2); err == nil {
		t.Error("nil index accepted")
	}
}

func ExampleClassIndex() {
	tbl := MustTable(
		Column{Name: "age", Role: RoleQuasiIdentifier},
		Column{Name: "weight", Role: RoleSensitive},
	)
	for _, row := range [][2]float64{{23, 50}, {23, 55}, {34, 70}, {34, 72}} {
		tbl.MustAddRow(Num(row[0]), Num(row[1]))
	}
	ix := NewClassIndex(tbl)
	classes, _ := ix.Classes(ctx, []string{"age"})
	fmt.Println(len(classes), "classes")
	classes2, _ := ix.Classes(ctx, []string{"age"}) // served from cache
	fmt.Println(len(classes2), "classes,", ix.Hits(), "cache hit")
	// Output:
	// 2 classes
	// 2 classes, 1 cache hit
}

// AltText spells a cell the way a second CSV writer might: a finite number
// with a trailing ".0", a category with trailing blanks. The result parses to
// the value v.String() parses to, but a reader that keys on text sees two.
func AltText(v Value) string {
	alt := v.String()
	switch v.Kind {
	case KindNumeric:
		alt = strconv.FormatFloat(v.Num, 'f', 1, 64)
	case KindCategorical:
		alt += "  "
	}
	if keyOf(ParseValue(alt)) != keyOf(ParseValue(v.String())) {
		return v.String()
	}
	return alt
}

// checkScorer scores the sets of rows of a one-column table of the given
// cells with the dictionary scorer — one scorer, its scratch carried from set
// to set — and with the pairwise reference, and reports the first difference.
// The table is built twice: by AddRow, and by ReadCSV from text in which every
// other row is spelt the other way, so its dictionary holds values twice.
func checkScorer(closeness float64, sets [][]int, cells []Value) error {
	added := MustTable(Column{Name: "target"})
	var text bytes.Buffer
	w := csv.NewWriter(&text)
	_ = w.Write([]string{"target"})
	for r, v := range cells {
		added.MustAddRow(v)
		if r%2 == 1 {
			_ = w.Write([]string{AltText(v)})
		} else {
			_ = w.Write([]string{v.String()})
		}
	}
	w.Flush()
	read, err := ReadCSV(&text, nil)
	if err != nil {
		return err
	}
	for _, tbl := range []*Table{added, read} {
		target := &tbl.cols[0]
		got, want := make([]ValueRisk, len(cells)), make([]ValueRisk, len(cells))
		scorer := newSetScorer(target, closeness)
		for _, set := range sets {
			scorer.score(got, set)
			scoreClassQuadratic(want, set, target, closeness)
		}
		for r := range want {
			if got[r] != want[r] {
				return fmt.Errorf("closeness %v, row %d (%v), %d entries for %d cells: scorer %+v, pairwise %+v",
					closeness, r, target.at(r), len(target.dict), len(cells), got[r], want[r])
			}
		}
	}
	return nil
}

// oneSet is the partition of n rows into a single set.
func oneSet(n int) [][]int {
	set := make([]int, n)
	for r := range set {
		set[r] = r
	}
	return [][]int{set}
}

// numbers returns n numeric cells f(0), f(1), ...
func numbers(n int, f func(i int) float64) []Value {
	cells := make([]Value, n)
	for i := range cells {
		cells[i] = Num(f(i))
	}
	return cells
}

// mixedCell draws a target cell of any kind, NaN-bounded and junk-carrying
// ones included; every interval it draws has lo <= hi.
func mixedCell(rng *rand.Rand) Value {
	switch rng.Intn(12) {
	case 0:
		return Cat([]string{"a", "b", "c"}[rng.Intn(3)])
	case 1:
		return Suppressed()
	case 2, 3:
		lo := float64(rng.Intn(20))
		return Interval(lo, lo+float64(rng.Intn(10)))
	case 4:
		return Num(math.NaN())
	case 5:
		return Interval(float64(rng.Intn(30)), math.NaN())
	case 6:
		return Value{Kind: KindNumeric, Num: float64(rng.Intn(30)), Str: "junk", Hi: 4}
	default:
		return Num(float64(rng.Intn(30)))
	}
}

func TestScoreClassFastPathMatchesQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Mixed-kind sets of every size class, including exact boundary hits at
	// distance == closeness.
	for _, size := range []int{1, 2, 32, 33, 200, 1000} {
		cells := make([]Value, size)
		for i := range cells {
			cells[i] = mixedCell(rng)
		}
		for _, closeness := range []float64{0, 1, 5} {
			if err := checkScorer(closeness, oneSet(size), cells); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestScoreClassInvertedIntervalFallsBack(t *testing.T) {
	// An interval parsed from "50-30" is inverted; the scorer must defer to
	// the exact pairwise scan for the whole set.
	cells := numbers(64, func(i int) float64 { return float64(i) })
	cells[7] = Interval(50, 30)
	if err := checkScorer(5, oneSet(64), cells); err != nil {
		t.Error(err)
	}
}

func TestScoreClassNaNValues(t *testing.T) {
	cells := numbers(64, func(i int) float64 { return float64(i % 10) })
	cells[3] = Num(math.NaN())
	if err := checkScorer(1, oneSet(64), cells); err != nil {
		t.Error(err)
	}
	tbl := MustTable(Column{Name: "target"})
	for _, v := range cells {
		tbl.MustAddRow(v)
	}
	risks, err := ValueRisks(ctx, tbl, ValueRiskOptions{TargetColumn: "target", Closeness: 1})
	if err != nil {
		t.Fatal(err)
	}
	if risks[3].Frequency != 0 {
		t.Errorf("NaN record frequency = %d, want 0", risks[3].Frequency)
	}
}

func TestScoreClassFloatRoundingEdge(t *testing.T) {
	// At 1e16 the additions fl(hi+c) and subtractions fl(lo-c) round
	// differently; the scorer must evaluate exactly the float expressions
	// Close uses or it disagrees with the pairwise reference here.
	cells := numbers(64, func(int) float64 { return 1e16 })
	cells[1] = Num(1e16 + 2)
	if err := checkScorer(1, oneSet(64), cells); err != nil {
		t.Error(err)
	}
}

// TestPropScorerMatchesQuadratic: over random tables of mixed kinds — a third
// of them holding an inverted interval — split into random sets, the
// dictionary scorer agrees with the pairwise reference on every record.
func TestPropScorerMatchesQuadratic(t *testing.T) {
	proptest.Run(t, func(seed int64, rng *rand.Rand) error {
		cells := make([]Value, 1+rng.Intn(300))
		for i := range cells {
			cells[i] = mixedCell(rng)
		}
		if rng.Intn(3) == 0 {
			cells[rng.Intn(len(cells))] = Interval(float64(10+rng.Intn(20)), float64(rng.Intn(10)))
		}
		sets := make([][]int, 1+rng.Intn(6))
		for r := range cells {
			i := rng.Intn(len(sets))
			sets[i] = append(sets[i], r)
		}
		sets = slices.DeleteFunc(sets, func(set []int) bool { return len(set) == 0 })
		return checkScorer([]float64{0, 0.5, 1, 5}[rng.Intn(4)], sets, cells)
	})
}

func TestEquivalenceClassesSeparatorInjective(t *testing.T) {
	// Categorical values containing a would-be separator must not alias two
	// distinct rows into one class.
	tbl := MustTable(Column{Name: "a"}, Column{Name: "b"})
	tbl.MustAddRow(Cat("x|categorical:y"), Cat("z"))
	tbl.MustAddRow(Cat("x"), Cat("y|categorical:z"))
	classes, err := tbl.EquivalenceClasses(ctx, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != 2 {
		t.Fatalf("aliased rows merged: %v", classes)
	}
}
