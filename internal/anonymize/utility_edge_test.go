package anonymize

import (
	"math"
	"testing"
)

func TestCompareUtilityEmptyTable(t *testing.T) {
	orig := MustTable(Column{Name: "w"})
	anon := MustTable(Column{Name: "w"})
	rep, err := CompareUtility(orig, anon, []string{"w"})
	if err != nil {
		t.Fatal(err)
	}
	cu, ok := rep.Column("w")
	if !ok {
		t.Fatal("missing column entry")
	}
	if cu.OriginalMean != 0 || cu.AnonymisedMean != 0 || cu.MeanAbsoluteError != 0 || cu.SuppressedFraction != 0 {
		t.Errorf("empty-table utility = %+v, want zeros", cu)
	}
	if rep.SuppressionRate != 0 {
		t.Errorf("suppression rate = %v, want 0", rep.SuppressionRate)
	}
	if !rep.AcceptableWithin(0) {
		t.Error("empty table not acceptable at zero mean shift")
	}
}

func TestCompareUtilityAllSuppressedColumn(t *testing.T) {
	orig := MustTable(Column{Name: "w"})
	anon := MustTable(Column{Name: "w"})
	for _, v := range []float64{60, 70, 80} {
		orig.MustAddRow(Num(v))
		anon.MustAddRow(Suppressed())
	}
	rep, err := CompareUtility(orig, anon, []string{"w"})
	if err != nil {
		t.Fatal(err)
	}
	cu, _ := rep.Column("w")
	if cu.SuppressedFraction != 1 {
		t.Errorf("suppressed fraction = %v, want 1", cu.SuppressedFraction)
	}
	if rep.SuppressionRate != 1 {
		t.Errorf("suppression rate = %v, want 1", rep.SuppressionRate)
	}
	// No usable anonymised cells: the anonymised mean collapses to zero and
	// the mean shift equals the original mean.
	if cu.AnonymisedMean != 0 || cu.MeanAbsoluteError != 0 {
		t.Errorf("all-suppressed utility = %+v", cu)
	}
	if got, want := cu.MeanShift(), 70.0; got != want {
		t.Errorf("mean shift = %v, want %v", got, want)
	}
}

func TestCompareUtilityErrors(t *testing.T) {
	a := MustTable(Column{Name: "w"})
	a.MustAddRow(Num(1))
	b := MustTable(Column{Name: "w"})
	if _, err := CompareUtility(a, b, []string{"w"}); err == nil {
		t.Error("row-count mismatch accepted")
	}
	if _, err := CompareUtility(a, a, []string{"ghost"}); err == nil {
		t.Error("unknown column accepted")
	}
}

func TestGeneralizationLossEdgeCases(t *testing.T) {
	empty := MustTable(Column{Name: "w"})
	if loss, err := GeneralizationLoss(empty, empty, []string{"w"}); err != nil || loss != 0 {
		t.Errorf("empty table loss = %v, %v; want 0, nil", loss, err)
	}

	// All-suppressed column counts as full loss.
	orig := MustTable(Column{Name: "w"})
	anon := MustTable(Column{Name: "w"})
	for _, v := range []float64{10, 20} {
		orig.MustAddRow(Num(v))
		anon.MustAddRow(Suppressed())
	}
	if loss, err := GeneralizationLoss(orig, anon, []string{"w"}); err != nil || loss != 1 {
		t.Errorf("all-suppressed loss = %v, %v; want 1, nil", loss, err)
	}

	// A single-row table has zero value range: any interval is full loss,
	// the exact value none.
	one := MustTable(Column{Name: "w"})
	one.MustAddRow(Num(42))
	exact := one.Clone()
	if loss, err := GeneralizationLoss(one, exact, []string{"w"}); err != nil || loss != 0 {
		t.Errorf("identity loss = %v, %v; want 0, nil", loss, err)
	}
	binned, err := Spec{"w": NumericBinning{Width: 10}}.Apply(one)
	if err != nil {
		t.Fatal(err)
	}
	if loss, err := GeneralizationLoss(one, binned, []string{"w"}); err != nil || loss != 1 {
		t.Errorf("zero-range interval loss = %v, %v; want 1, nil", loss, err)
	}

	if _, err := GeneralizationLoss(one, one, []string{"ghost"}); err == nil {
		t.Error("unknown column accepted")
	}
}

func TestGeneralizersPassThroughAndSuppress(t *testing.T) {
	// NumericBinning leaves categorical and suppressed cells alone, and a
	// non-positive width is the identity.
	if v := (NumericBinning{Width: 10}).Generalize(Cat("x")); v != Cat("x") {
		t.Errorf("binned category = %v", v)
	}
	if v := (NumericBinning{Width: 10}).Generalize(Suppressed()); !v.IsSuppressed() {
		t.Errorf("binned suppressed cell = %v", v)
	}
	if v := (NumericBinning{}).Generalize(Num(7)); v != Num(7) {
		t.Errorf("zero-width binning = %v", v)
	}
	// Interval inputs re-bin via their midpoint.
	if v := (NumericBinning{Width: 10}).Generalize(Interval(30, 50)); v != Interval(40, 50) {
		t.Errorf("re-binned interval = %v", v)
	}

	cm := CategoryMap{Groups: map[string]string{"a": "vowel"}, SuppressUnknown: true}
	if v := cm.Generalize(Cat("a")); v != Cat("vowel") {
		t.Errorf("mapped category = %v", v)
	}
	if v := cm.Generalize(Cat("z")); !v.IsSuppressed() {
		t.Errorf("unknown category = %v, want suppressed", v)
	}
	if v := cm.Generalize(Num(3)); v != Num(3) {
		t.Errorf("category map on numeric = %v", v)
	}
	if v := (CategoryMap{}).Generalize(Cat("z")); v != Cat("z") {
		t.Errorf("pass-through category = %v", v)
	}

	if v := (SuppressAll{}).Generalize(Num(1)); !v.IsSuppressed() {
		t.Errorf("SuppressAll = %v", v)
	}
}

func TestValueRisksSingleRowClass(t *testing.T) {
	tbl := MustTable(
		Column{Name: "age", Role: RoleQuasiIdentifier},
		Column{Name: "weight", Role: RoleSensitive},
	)
	tbl.MustAddRow(Num(23), Num(50))
	tbl.MustAddRow(Num(34), Num(70))
	risks, err := ValueRisks(ctx, tbl, ValueRiskOptions{
		VisibleColumns: []string{"age"},
		TargetColumn:   "weight",
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range risks {
		if r.SetSize != 1 || r.Frequency != 1 || r.Probability != 1 {
			t.Errorf("single-row class risk = %+v, want 1/1", r)
		}
	}
}

func TestSpecApplyDoesNotMutateInput(t *testing.T) {
	tbl := MustTable(Column{Name: "w"})
	tbl.MustAddRow(Num(42))
	out, err := Spec{"w": NumericBinning{Width: 10}}.Apply(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := tbl.Value(0, "w"); v != Num(42) {
		t.Errorf("input mutated: %v", v)
	}
	if v, _ := out.Value(0, "w"); v != Interval(40, 50) {
		t.Errorf("output cell = %v", v)
	}
	if _, err := (Spec{"ghost": SuppressAll{}}).Apply(tbl); err == nil {
		t.Error("unknown spec column accepted")
	}
	if math.IsNaN((SuppressAll{}).Generalize(Num(1)).Midpoint()) != true {
		t.Error("suppressed midpoint should be NaN")
	}
}
