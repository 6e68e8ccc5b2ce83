package anonymize

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAttackerModelString(t *testing.T) {
	if AttackerProsecutor.String() != "prosecutor" ||
		AttackerJournalist.String() != "journalist" ||
		AttackerMarketer.String() != "marketer" {
		t.Error("AttackerModel.String() wrong")
	}
	if AttackerModel(9).String() != "attacker(9)" {
		t.Error("unknown attacker model rendering wrong")
	}
}

func TestReidentificationRiskTableI(t *testing.T) {
	tbl := tableIRecords(t)
	report, err := ReidentificationRisk(ctx, tbl, []string{"age", "height"}, 0.5)
	if err != nil {
		t.Fatalf("ReidentificationRisk: %v", err)
	}
	// Three equivalence classes of size two: every record has prosecutor
	// risk 1/2.
	if report.HighestRisk != 0.5 {
		t.Errorf("HighestRisk = %v, want 0.5", report.HighestRisk)
	}
	if math.Abs(report.AverageRisk-0.5) > 1e-9 {
		t.Errorf("AverageRisk = %v, want 0.5", report.AverageRisk)
	}
	if report.SmallestClass != 2 {
		t.Errorf("SmallestClass = %d, want 2", report.SmallestClass)
	}
	if report.AtRiskRecords != 6 {
		t.Errorf("AtRiskRecords at 0.5 = %d, want 6", report.AtRiskRecords)
	}
	if !report.SatisfiesK(2) || report.SatisfiesK(3) {
		t.Error("SatisfiesK misreports the k level")
	}
	for _, rec := range report.Records {
		if rec.ClassSize != 2 || rec.Risk != 0.5 {
			t.Errorf("record %d = %+v", rec.Row, rec)
		}
	}
	// Prosecutor and journalist report the class-based bound; marketer the
	// average.
	if report.RiskFor(AttackerProsecutor) != 0.5 || report.RiskFor(AttackerJournalist) != 0.5 {
		t.Error("prosecutor/journalist risk wrong")
	}
	if report.RiskFor(AttackerMarketer) != report.AverageRisk {
		t.Error("marketer risk should be the average")
	}
}

func TestReidentificationRiskSingletons(t *testing.T) {
	tbl := MustTable(Column{Name: "age", Role: RoleQuasiIdentifier})
	for _, a := range []float64{21, 22, 23, 24} {
		tbl.MustAddRow(Num(a))
	}
	report, err := ReidentificationRisk(ctx, tbl, []string{"age"}, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if report.HighestRisk != 1 || report.SmallestClass != 1 {
		t.Errorf("singleton classes: %+v", report)
	}
	if report.AtRiskRecords != 4 {
		t.Errorf("AtRiskRecords = %d, want 4", report.AtRiskRecords)
	}
	if report.SatisfiesK(2) {
		t.Error("singleton dataset must not satisfy 2-anonymity")
	}

	// Generalising the ages into one bin removes the risk.
	anon, err := Spec{"age": NumericBinning{Width: 10, Origin: 20}}.Apply(tbl)
	if err != nil {
		t.Fatal(err)
	}
	after, err := ReidentificationRisk(ctx, anon, []string{"age"}, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if after.HighestRisk != 0.25 {
		t.Errorf("generalised highest risk = %v, want 0.25", after.HighestRisk)
	}
	if after.AtRiskRecords != 0 {
		t.Errorf("generalised AtRiskRecords = %d, want 0", after.AtRiskRecords)
	}
}

func TestReidentificationRiskErrors(t *testing.T) {
	tbl := tableIRecords(t)
	if _, err := ReidentificationRisk(ctx, nil, []string{"age"}, 0.5); err == nil {
		t.Error("nil table accepted")
	}
	if _, err := ReidentificationRisk(ctx, tbl, nil, 0.5); err == nil {
		t.Error("empty quasi-identifier list accepted")
	}
	if _, err := ReidentificationRisk(ctx, tbl, []string{"ghost"}, 0.5); err == nil {
		t.Error("unknown quasi-identifier accepted")
	}
	if _, err := ReidentificationRisk(ctx, tbl, []string{"age"}, 1.5); err == nil {
		t.Error("threshold above 1 accepted")
	}
	empty := MustTable(Column{Name: "age"})
	report, err := ReidentificationRisk(ctx, empty, []string{"age"}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Records) != 0 || report.HighestRisk != 0 {
		t.Errorf("empty table report = %+v", report)
	}
	if !report.SatisfiesK(5) {
		t.Error("empty table should trivially satisfy any k")
	}
	if report.SatisfiesK(0) {
		t.Error("k=0 should never be satisfied")
	}
}

func TestReidentificationRiskProperties(t *testing.T) {
	// Properties: every per-record risk is 1/classSize in (0,1]; the average
	// equals numClasses / numRows; k-anonymity agrees with IsKAnonymous.
	f := func(seed uint32) bool {
		x := seed
		next := func(m int) int {
			x = x*1664525 + 1013904223
			return int(x>>8) % m
		}
		tbl := MustTable(Column{Name: "qi", Role: RoleQuasiIdentifier}, Column{Name: "v"})
		n := next(25) + 1
		for i := 0; i < n; i++ {
			tbl.MustAddRow(Num(float64(next(4))), Num(float64(i)))
		}
		report, err := ReidentificationRisk(ctx, tbl, []string{"qi"}, 0.5)
		if err != nil {
			return false
		}
		classes, err := tbl.EquivalenceClasses(ctx, []string{"qi"})
		if err != nil {
			return false
		}
		expectedAvg := float64(len(classes)) / float64(n)
		if math.Abs(report.AverageRisk-expectedAvg) > 1e-9 {
			return false
		}
		for _, rec := range report.Records {
			if rec.Risk <= 0 || rec.Risk > 1 {
				return false
			}
			if math.Abs(rec.Risk-1/float64(rec.ClassSize)) > 1e-12 {
				return false
			}
		}
		for k := 1; k <= 3; k++ {
			ok, err := IsKAnonymous(ctx, tbl, []string{"qi"}, k)
			if err != nil {
				return false
			}
			if ok != report.SatisfiesK(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
