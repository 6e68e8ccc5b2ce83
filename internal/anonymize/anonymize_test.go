package anonymize

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// tableIRecords builds the six records of the paper's Table I: age and height
// already 2-anonymised (10-year / 20-cm bins), weight exact.
func tableIRecords(t testing.TB) *Table {
	t.Helper()
	tbl := MustTable(
		Column{Name: "age", Role: RoleQuasiIdentifier},
		Column{Name: "height", Role: RoleQuasiIdentifier, Unit: "cm"},
		Column{Name: "weight", Role: RoleSensitive, Unit: "kg"},
	)
	rows := [][3]Value{
		{Interval(30, 40), Interval(180, 200), Num(100)},
		{Interval(30, 40), Interval(180, 200), Num(102)},
		{Interval(20, 30), Interval(180, 200), Num(110)},
		{Interval(20, 30), Interval(180, 200), Num(111)},
		{Interval(20, 30), Interval(160, 180), Num(80)},
		{Interval(20, 30), Interval(160, 180), Num(110)},
	}
	for _, r := range rows {
		tbl.MustAddRow(r[0], r[1], r[2])
	}
	return tbl
}

func fractions(risks []ValueRisk) []string {
	out := make([]string, len(risks))
	for i, r := range risks {
		out[i] = r.String()
	}
	return out
}

func TestValueKindAndString(t *testing.T) {
	tests := []struct {
		v    Value
		want string
	}{
		{Num(100), "100"},
		{Num(2.5), "2.5"},
		{Interval(30, 40), "30-40"},
		{Cat("flu"), "flu"},
		{Suppressed(), "*"},
	}
	for _, tt := range tests {
		if got := tt.v.String(); got != tt.want {
			t.Errorf("%v.String() = %q, want %q", tt.v, got, tt.want)
		}
	}
	if KindNumeric.String() != "numeric" || KindSuppressed.String() != "suppressed" {
		t.Error("ValueKind.String() wrong")
	}
	if got := ValueKind(9).String(); got != "kind(9)" {
		t.Errorf("ValueKind(9).String() = %q", got)
	}
}

func TestParseValue(t *testing.T) {
	tests := []struct {
		in   string
		want Value
	}{
		{"100", Num(100)},
		{" 2.5 ", Num(2.5)},
		{"30-40", Interval(30, 40)},
		{"*", Suppressed()},
		{"flu", Cat("flu")},
		{"a-b", Cat("a-b")},
	}
	for _, tt := range tests {
		if got := ParseValue(tt.in); got != tt.want {
			t.Errorf("ParseValue(%q) = %+v, want %+v", tt.in, got, tt.want)
		}
	}
}

func TestValueMidpointAndClose(t *testing.T) {
	if Interval(30, 40).Midpoint() != 35 {
		t.Error("interval midpoint wrong")
	}
	if Num(7).Midpoint() != 7 {
		t.Error("numeric midpoint wrong")
	}
	if !math.IsNaN(Cat("x").Midpoint()) || !math.IsNaN(Suppressed().Midpoint()) {
		t.Error("non-numeric midpoints should be NaN")
	}

	tests := []struct {
		a, b      Value
		closeness float64
		want      bool
	}{
		{Num(100), Num(102), 5, true},
		{Num(100), Num(110), 5, false},
		{Num(100), Num(100), 0, true},
		{Num(100), Num(101), 0, false},
		{Interval(30, 40), Num(38), 0, true},
		{Interval(30, 40), Num(45), 0, false},
		{Interval(30, 40), Num(44), 5, true},
		{Cat("flu"), Cat("flu"), 0, true},
		{Cat("flu"), Cat("cold"), 0, false},
		{Cat("flu"), Num(1), 5, false},
		{Suppressed(), Num(1), 100, false},
	}
	for _, tt := range tests {
		if got := tt.a.Close(tt.b, tt.closeness); got != tt.want {
			t.Errorf("Close(%v, %v, %v) = %v, want %v", tt.a, tt.b, tt.closeness, got, tt.want)
		}
		if got := tt.b.Close(tt.a, tt.closeness); got != tt.want {
			t.Errorf("Close is not symmetric for (%v, %v)", tt.a, tt.b)
		}
	}
}

func TestFraction(t *testing.T) {
	f := Fraction{Num: 3, Den: 4}
	if f.String() != "3/4" {
		t.Errorf("String() = %q", f.String())
	}
	if f.Float() != 0.75 {
		t.Errorf("Float() = %v", f.Float())
	}
	if (Fraction{Num: 1, Den: 0}).Float() != 0 {
		t.Error("zero denominator should give 0")
	}
}

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable(); err == nil {
		t.Error("table with no columns accepted")
	}
	if _, err := NewTable(Column{Name: " "}); err == nil {
		t.Error("empty column name accepted")
	}
	if _, err := NewTable(Column{Name: "a"}, Column{Name: "a"}); err == nil {
		t.Error("duplicate column accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustTable should panic on invalid columns")
		}
	}()
	MustTable()
}

func TestTableBasics(t *testing.T) {
	tbl := tableIRecords(t)
	if tbl.NumRows() != 6 || tbl.NumColumns() != 3 {
		t.Fatalf("size = %dx%d", tbl.NumRows(), tbl.NumColumns())
	}
	if err := tbl.AddRow(Num(1)); err == nil {
		t.Error("short row accepted")
	}
	if _, err := tbl.Value(0, "ghost"); err == nil {
		t.Error("unknown column accepted")
	}
	if _, err := tbl.Value(99, "age"); err == nil {
		t.Error("out-of-range row accepted")
	}
	v, err := tbl.Value(0, "weight")
	if err != nil || v.Num != 100 {
		t.Errorf("Value(0, weight) = %v, %v", v, err)
	}
	row, err := tbl.Row(2)
	if err != nil || len(row) != 3 {
		t.Errorf("Row(2) = %v, %v", row, err)
	}
	if _, err := tbl.Row(-1); err == nil {
		t.Error("negative row accepted")
	}
	if got := tbl.ColumnsByRole(RoleQuasiIdentifier); len(got) != 2 {
		t.Errorf("ColumnsByRole(quasi) = %v", got)
	}
	if c, ok := tbl.Column("height"); !ok || c.Unit != "cm" {
		t.Errorf("Column(height) = %+v, %v", c, ok)
	}
	if _, ok := tbl.Column("ghost"); ok {
		t.Error("Column(ghost) should fail")
	}
	names := tbl.ColumnNames()
	if len(names) != 3 || names[2] != "weight" {
		t.Errorf("ColumnNames() = %v", names)
	}
	if RoleSensitive.String() != "sensitive" || ColumnRole(9).String() != "role(9)" {
		t.Error("ColumnRole.String() wrong")
	}
}

func TestTableCloneIndependent(t *testing.T) {
	tbl := tableIRecords(t)
	clone := tbl.Clone()
	if err := clone.SetValue(0, "weight", Num(1)); err != nil {
		t.Fatal(err)
	}
	orig, _ := tbl.Value(0, "weight")
	if orig.Num != 100 {
		t.Error("mutating the clone changed the original")
	}
	if err := clone.SetValue(0, "ghost", Num(1)); err == nil {
		t.Error("SetValue on unknown column accepted")
	}
	if err := clone.SetValue(-1, "weight", Num(1)); err == nil {
		t.Error("SetValue on bad row accepted")
	}
}

func TestTableProject(t *testing.T) {
	tbl := tableIRecords(t)
	proj, err := tbl.Project("weight", "age")
	if err != nil {
		t.Fatal(err)
	}
	if proj.NumColumns() != 2 || proj.NumRows() != 6 {
		t.Fatalf("projection size = %dx%d", proj.NumRows(), proj.NumColumns())
	}
	if proj.ColumnNames()[0] != "weight" {
		t.Errorf("projection order = %v", proj.ColumnNames())
	}
	if _, err := tbl.Project("ghost"); err == nil {
		t.Error("projection of unknown column accepted")
	}
}

func TestTableString(t *testing.T) {
	out := tableIRecords(t).String()
	for _, want := range []string{"age", "height (cm)", "weight (kg)", "30-40", "180-200", "100"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
}

func TestEquivalenceClasses(t *testing.T) {
	tbl := tableIRecords(t)
	classes, err := tbl.EquivalenceClasses(ctx, []string{"age", "height"})
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != 3 {
		t.Fatalf("classes = %v, want 3 groups", classes)
	}
	sizes := map[int]int{}
	for _, c := range classes {
		sizes[len(c)]++
	}
	if sizes[2] != 3 {
		t.Errorf("expected three classes of size 2, got %v", classes)
	}
	if _, err := tbl.EquivalenceClasses(ctx, []string{"ghost"}); err == nil {
		t.Error("unknown column accepted")
	}
	// Grouping on height only gives 2 classes (4 + 2).
	classes, err = tbl.EquivalenceClasses(ctx, []string{"height"})
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != 2 {
		t.Errorf("height classes = %v", classes)
	}
}

func TestNumericBinning(t *testing.T) {
	bin := NumericBinning{Width: 10}
	if got := bin.Generalize(Num(34)); got != Interval(30, 40) {
		t.Errorf("Generalize(34) = %v", got)
	}
	if got := bin.Generalize(Num(40)); got != Interval(40, 50) {
		t.Errorf("Generalize(40) = %v", got)
	}
	if got := bin.Generalize(Interval(32, 34)); got != Interval(30, 40) {
		t.Errorf("Generalize(interval) = %v", got)
	}
	if got := bin.Generalize(Cat("x")); got != Cat("x") {
		t.Errorf("categorical should pass through, got %v", got)
	}
	if got := (NumericBinning{Width: 0}).Generalize(Num(5)); got != Num(5) {
		t.Errorf("zero width should pass through, got %v", got)
	}
	if got := (NumericBinning{Width: 20, Origin: 160}).Generalize(Num(185)); got != Interval(180, 200) {
		t.Errorf("origin-aligned binning = %v", got)
	}
}

func TestCategoryMapAndSuppressAll(t *testing.T) {
	cm := CategoryMap{Groups: map[string]string{"flu": "respiratory", "cold": "respiratory"}}
	if got := cm.Generalize(Cat("flu")); got != Cat("respiratory") {
		t.Errorf("Generalize(flu) = %v", got)
	}
	if got := cm.Generalize(Cat("broken-leg")); got != Cat("broken-leg") {
		t.Errorf("unmapped category should pass through, got %v", got)
	}
	strict := CategoryMap{Groups: map[string]string{}, SuppressUnknown: true}
	if got := strict.Generalize(Cat("x")); !got.IsSuppressed() {
		t.Errorf("SuppressUnknown should suppress, got %v", got)
	}
	if got := cm.Generalize(Num(5)); got != Num(5) {
		t.Errorf("numeric should pass through CategoryMap, got %v", got)
	}
	if got := (SuppressAll{}).Generalize(Num(5)); !got.IsSuppressed() {
		t.Errorf("SuppressAll = %v", got)
	}
}

func TestSpecApply(t *testing.T) {
	tbl := MustTable(Column{Name: "age"}, Column{Name: "city"})
	tbl.MustAddRow(Num(34), Cat("Rome"))
	tbl.MustAddRow(Num(47), Cat("Paris"))
	out, err := Spec{"age": NumericBinning{Width: 10}}.Apply(tbl)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := out.Value(0, "age")
	if v != Interval(30, 40) {
		t.Errorf("generalised age = %v", v)
	}
	// Original untouched.
	v, _ = tbl.Value(0, "age")
	if v != Num(34) {
		t.Error("Apply mutated the input table")
	}
	if _, err := (Spec{"ghost": SuppressAll{}}).Apply(tbl); err == nil {
		t.Error("spec with unknown column accepted")
	}
}

func TestIsKAnonymous(t *testing.T) {
	tbl := tableIRecords(t)
	qi := []string{"age", "height"}
	ok, err := IsKAnonymous(ctx, tbl, qi, 2)
	if err != nil || !ok {
		t.Errorf("IsKAnonymous(ctx, k=2) = %v, %v; Table I is 2-anonymous", ok, err)
	}
	ok, err = IsKAnonymous(ctx, tbl, qi, 3)
	if err != nil || ok {
		t.Errorf("IsKAnonymous(ctx, k=3) = %v, %v; want false", ok, err)
	}
	if _, err := IsKAnonymous(ctx, tbl, qi, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := IsKAnonymous(ctx, tbl, []string{"ghost"}, 2); err == nil {
		t.Error("unknown QI accepted")
	}
	empty := MustTable(Column{Name: "x"})
	if ok, err := IsKAnonymous(ctx, empty, []string{"x"}, 5); err != nil || !ok {
		t.Errorf("empty table should be trivially k-anonymous, got %v, %v", ok, err)
	}
}

func TestDistinctLDiversity(t *testing.T) {
	tbl := tableIRecords(t)
	qi := []string{"age", "height"}
	// Every class has 2 distinct weights except the paper does not require
	// it; classes {100,102}, {110,111}, {80,110} all have 2 distinct values.
	ok, err := DistinctLDiversity(ctx, tbl, qi, "weight", 2)
	if err != nil || !ok {
		t.Errorf("l=2 diversity = %v, %v", ok, err)
	}
	ok, err = DistinctLDiversity(ctx, tbl, qi, "weight", 3)
	if err != nil || ok {
		t.Errorf("l=3 diversity = %v, %v; want false", ok, err)
	}
	if _, err := DistinctLDiversity(ctx, tbl, qi, "ghost", 2); err == nil {
		t.Error("unknown sensitive column accepted")
	}
	if _, err := DistinctLDiversity(ctx, tbl, qi, "weight", 0); err == nil {
		t.Error("l=0 accepted")
	}
}

func TestKAnonymize(t *testing.T) {
	// Raw (not yet anonymised) physical attributes.
	tbl := MustTable(
		Column{Name: "age", Role: RoleQuasiIdentifier},
		Column{Name: "height", Role: RoleQuasiIdentifier},
		Column{Name: "weight", Role: RoleSensitive},
	)
	raw := [][3]float64{
		{34, 185, 100}, {38, 190, 102}, {25, 181, 110}, {29, 199, 111}, {22, 165, 80}, {27, 170, 110},
		{31, 186, 95}, {36, 182, 99}, {24, 174, 85}, {28, 178, 88},
	}
	for _, r := range raw {
		tbl.MustAddRow(Num(r[0]), Num(r[1]), Num(r[2]))
	}
	qi := []string{"age", "height"}
	anon, result, err := KAnonymize(ctx, tbl, qi, 2)
	if err != nil {
		t.Fatalf("KAnonymize: %v", err)
	}
	ok, err := IsKAnonymous(ctx, anon, qi, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !ok && len(result.SuppressedRows) == 0 {
		t.Errorf("output is not 2-anonymous and nothing was suppressed; result=%+v\n%s", result, anon.String())
	}
	if result.Classes == 0 {
		t.Error("result should report equivalence classes")
	}
	// The sensitive column is untouched.
	for r := 0; r < anon.NumRows(); r++ {
		v, _ := anon.Value(r, "weight")
		orig, _ := tbl.Value(r, "weight")
		if v != orig {
			t.Errorf("row %d weight changed: %v -> %v", r, orig, v)
		}
	}
	// Input is unchanged.
	v, _ := tbl.Value(0, "age")
	if v != Num(34) {
		t.Error("KAnonymize mutated its input")
	}

	// Error cases.
	if _, _, err := KAnonymize(ctx, tbl, qi, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, _, err := KAnonymize(ctx, tbl, []string{"ghost"}, 2); err == nil {
		t.Error("unknown QI accepted")
	}
}

func TestKAnonymizeSuppressionFallback(t *testing.T) {
	// Ages 1 and 1e9 are further apart than the widest bin the doubling
	// budget reaches (2^20), so the anonymiser must fall back to suppression.
	tbl := MustTable(Column{Name: "age", Role: RoleQuasiIdentifier}, Column{Name: "weight"})
	tbl.MustAddRow(Num(1), Num(50))
	tbl.MustAddRow(Num(1e9), Num(60))
	tbl.MustAddRow(Num(1), Num(55))
	anon, result, err := KAnonymize(ctx, tbl, []string{"age"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(result.SuppressedRows) == 0 {
		t.Fatalf("expected suppression, got %+v\n%s", result, anon.String())
	}
	for _, r := range result.SuppressedRows {
		v, _ := anon.Value(r, "age")
		if !v.IsSuppressed() {
			t.Errorf("row %d should have suppressed age", r)
		}
	}
}

func TestKAnonymizeProperty(t *testing.T) {
	// Property: for random small datasets, the output is k-anonymous once
	// suppressed rows are accounted for (suppressed rows share one class, so
	// they only violate k-anonymity if fewer than k rows were suppressed
	// overall, which the fallback cannot avoid; we accept that documented
	// boundary case and check everything else).
	f := func(seed uint32) bool {
		n := int(seed%20) + 4
		x := seed
		next := func(m int) int {
			x = x*1664525 + 1013904223
			return int(x>>8) % m
		}
		tbl := MustTable(Column{Name: "a", Role: RoleQuasiIdentifier}, Column{Name: "s"})
		for i := 0; i < n; i++ {
			tbl.MustAddRow(Num(float64(next(50))), Num(float64(next(100))))
		}
		anon, result, err := KAnonymize(ctx, tbl, []string{"a"}, 2)
		if err != nil {
			return false
		}
		classes, err := anon.EquivalenceClasses(ctx, []string{"a"})
		if err != nil {
			return false
		}
		suppressedSet := make(map[int]bool)
		for _, r := range result.SuppressedRows {
			suppressedSet[r] = true
		}
		for _, class := range classes {
			if len(class) >= 2 {
				continue
			}
			// Undersized classes may only consist of suppressed rows.
			for _, r := range class {
				if !suppressedSet[r] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestValueRisksReproduceTableI(t *testing.T) {
	tbl := tableIRecords(t)
	const closeness = 5.0

	tests := []struct {
		name    string
		visible []string
		want    []string
		wantHit int // violations at >= 90% confidence
	}{
		{"height only", []string{"height"}, []string{"2/4", "2/4", "2/4", "2/4", "1/2", "1/2"}, 0},
		{"age only", []string{"age"}, []string{"2/2", "2/2", "3/4", "3/4", "1/4", "3/4"}, 2},
		{"age and height", []string{"age", "height"}, []string{"2/2", "2/2", "2/2", "2/2", "1/2", "1/2"}, 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			risks, err := ValueRisks(ctx, tbl, ValueRiskOptions{
				VisibleColumns: tt.visible,
				TargetColumn:   "weight",
				Closeness:      closeness,
			})
			if err != nil {
				t.Fatalf("ValueRisks: %v", err)
			}
			got := fractions(risks)
			for i := range tt.want {
				if got[i] != tt.want[i] {
					t.Errorf("row %d risk = %s, want %s (all: %v)", i, got[i], tt.want[i], got)
				}
			}
			if violations := CountViolations(risks, 0.9); violations != tt.wantHit {
				t.Errorf("violations = %d, want %d", violations, tt.wantHit)
			}
		})
	}
}

func TestValueRisksEdgeCases(t *testing.T) {
	tbl := tableIRecords(t)
	if _, err := ValueRisks(ctx, nil, ValueRiskOptions{TargetColumn: "weight"}); err == nil {
		t.Error("nil table accepted")
	}
	if _, err := ValueRisks(ctx, tbl, ValueRiskOptions{TargetColumn: "ghost"}); err == nil {
		t.Error("unknown target accepted")
	}
	if _, err := ValueRisks(ctx, tbl, ValueRiskOptions{TargetColumn: "weight", VisibleColumns: []string{"ghost"}}); err == nil {
		t.Error("unknown visible column accepted")
	}
	if _, err := ValueRisks(ctx, tbl, ValueRiskOptions{TargetColumn: "weight", Closeness: -1}); err == nil {
		t.Error("negative closeness accepted")
	}
	// No visible columns: one set covering the whole table.
	risks, err := ValueRisks(ctx, tbl, ValueRiskOptions{TargetColumn: "weight", Closeness: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range risks {
		if r.SetSize != 6 {
			t.Errorf("set size without visible columns = %d, want 6", r.SetSize)
		}
	}
	if MaxRisk(risks) <= 0 || MaxRisk(nil) != 0 {
		t.Error("MaxRisk misbehaves")
	}
}

func TestCompareUtility(t *testing.T) {
	original := MustTable(Column{Name: "weight"})
	anonymised := MustTable(Column{Name: "weight"})
	weights := []float64{100, 102, 110, 111, 80, 110}
	for _, w := range weights {
		original.MustAddRow(Num(w))
		anonymised.MustAddRow(NumericBinning{Width: 20}.Generalize(Num(w)))
	}
	report, err := CompareUtility(original, anonymised, []string{"weight"})
	if err != nil {
		t.Fatal(err)
	}
	cu, ok := report.Column("weight")
	if !ok {
		t.Fatal("missing column utility")
	}
	if cu.OriginalMean == 0 || cu.AnonymisedMean == 0 {
		t.Errorf("means not computed: %+v", cu)
	}
	if cu.MeanAbsoluteError <= 0 || cu.MeanAbsoluteError > 10 {
		t.Errorf("MeanAbsoluteError = %v, want within (0, 10]", cu.MeanAbsoluteError)
	}
	if cu.SuppressedFraction != 0 {
		t.Errorf("SuppressedFraction = %v, want 0", cu.SuppressedFraction)
	}
	if !report.AcceptableWithin(15) {
		t.Error("mean shift should be acceptable within 15")
	}
	if report.AcceptableWithin(0.0001) {
		t.Error("mean shift should not be acceptable within 0.0001")
	}
	if _, ok := report.Column("ghost"); ok {
		t.Error("Column(ghost) should fail")
	}

	// Errors.
	short := MustTable(Column{Name: "weight"})
	if _, err := CompareUtility(original, short, []string{"weight"}); err == nil {
		t.Error("row mismatch accepted")
	}
	if _, err := CompareUtility(original, anonymised, []string{"ghost"}); err == nil {
		t.Error("unknown column accepted")
	}
}

func TestGeneralizationLoss(t *testing.T) {
	original := MustTable(Column{Name: "age"})
	anonymised := MustTable(Column{Name: "age"})
	for _, a := range []float64{20, 30, 40, 60} {
		original.MustAddRow(Num(a))
		anonymised.MustAddRow(NumericBinning{Width: 10}.Generalize(Num(a)))
	}
	loss, err := GeneralizationLoss(original, anonymised, []string{"age"})
	if err != nil {
		t.Fatal(err)
	}
	// Range is 40, every interval has width 10 -> loss 0.25.
	if math.Abs(loss-0.25) > 1e-9 {
		t.Errorf("loss = %v, want 0.25", loss)
	}
	// Identical tables lose nothing.
	loss, err = GeneralizationLoss(original, original, []string{"age"})
	if err != nil || loss != 0 {
		t.Errorf("loss of identity = %v, %v", loss, err)
	}
	// Suppression is total loss.
	suppressed := original.Clone()
	for r := 0; r < suppressed.NumRows(); r++ {
		if err := suppressed.SetValue(r, "age", Suppressed()); err != nil {
			t.Fatal(err)
		}
	}
	loss, err = GeneralizationLoss(original, suppressed, []string{"age"})
	if err != nil || loss != 1 {
		t.Errorf("loss of suppressed table = %v, %v, want 1", loss, err)
	}
	if _, err := GeneralizationLoss(original, MustTable(Column{Name: "age"}), []string{"age"}); err == nil {
		t.Error("row mismatch accepted")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	input := "age,height,weight\n30-40,180-200,100\n20-30,160-180,*\nunknown,170-180,82\n"
	tbl, err := ReadCSV(strings.NewReader(input), ColumnSpec{
		"age": RoleQuasiIdentifier, "height": RoleQuasiIdentifier, "weight": RoleSensitive,
	})
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if tbl.NumRows() != 3 {
		t.Fatalf("NumRows = %d", tbl.NumRows())
	}
	v, _ := tbl.Value(0, "age")
	if v != Interval(30, 40) {
		t.Errorf("parsed age = %v", v)
	}
	v, _ = tbl.Value(1, "weight")
	if !v.IsSuppressed() {
		t.Errorf("parsed suppressed weight = %v", v)
	}
	v, _ = tbl.Value(2, "age")
	if v != Cat("unknown") {
		t.Errorf("parsed categorical age = %v", v)
	}
	if c, _ := tbl.Column("age"); c.Role != RoleQuasiIdentifier {
		t.Errorf("column role = %v", c.Role)
	}

	var out strings.Builder
	if err := WriteCSV(&out, tbl); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	back, err := ReadCSV(strings.NewReader(out.String()), nil)
	if err != nil {
		t.Fatalf("ReadCSV(round trip): %v", err)
	}
	if back.NumRows() != tbl.NumRows() || back.NumColumns() != tbl.NumColumns() {
		t.Error("round trip changed the table size")
	}

	if _, err := ReadCSV(strings.NewReader(""), nil); err == nil {
		t.Error("empty CSV accepted")
	}
	if _, err := ReadCSV(strings.NewReader("a,b\n1\n"), nil); err == nil {
		t.Error("ragged CSV accepted")
	}
}

func TestValueRiskProbabilityBounds(t *testing.T) {
	// Property: probabilities are always in (0, 1] and the record itself is
	// always counted (frequency >= 1).
	f := func(seed uint32) bool {
		x := seed
		next := func(m int) int {
			x = x*1664525 + 1013904223
			return int(x>>8) % m
		}
		tbl := MustTable(Column{Name: "qi"}, Column{Name: "target"})
		n := next(20) + 1
		for i := 0; i < n; i++ {
			tbl.MustAddRow(Num(float64(next(3))), Num(float64(next(10))))
		}
		risks, err := ValueRisks(ctx, tbl, ValueRiskOptions{
			VisibleColumns: []string{"qi"}, TargetColumn: "target", Closeness: float64(next(4)),
		})
		if err != nil {
			return false
		}
		for _, r := range risks {
			if r.Frequency < 1 || r.Frequency > r.SetSize {
				return false
			}
			if r.Probability <= 0 || r.Probability > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
