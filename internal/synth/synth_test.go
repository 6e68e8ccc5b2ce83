package synth

import (
	"context"
	"testing"

	"privascope/internal/anonymize"
	"privascope/internal/core"
	"privascope/internal/dataflow"
)

func TestHealthRecordsDeterministic(t *testing.T) {
	a := HealthRecords(40, 7)
	b := HealthRecords(40, 7)
	if a.NumRows() != 40 || b.NumRows() != 40 {
		t.Fatalf("rows = %d, %d", a.NumRows(), b.NumRows())
	}
	for r := 0; r < a.NumRows(); r++ {
		for _, col := range []string{"age", "height", "weight", "condition"} {
			va, _ := a.Value(r, col)
			vb, _ := b.Value(r, col)
			if va != vb {
				t.Fatalf("row %d column %s differs between equal seeds: %v vs %v", r, col, va, vb)
			}
		}
	}
	c := HealthRecords(40, 8)
	same := true
	for r := 0; r < a.NumRows(); r++ {
		va, _ := a.Value(r, "weight")
		vc, _ := c.Value(r, "weight")
		if va != vc {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical weights")
	}
}

func TestHealthRecordsPlausibleRanges(t *testing.T) {
	tbl := HealthRecords(200, 1)
	for r := 0; r < tbl.NumRows(); r++ {
		age, _ := tbl.Value(r, "age")
		if age.Num < 18 || age.Num > 88 {
			t.Fatalf("row %d age %v out of range", r, age.Num)
		}
		height, _ := tbl.Value(r, "height")
		if height.Num < 150 || height.Num > 200 {
			t.Fatalf("row %d height %v out of range", r, height.Num)
		}
		weight, _ := tbl.Value(r, "weight")
		if weight.Num < 40 || weight.Num > 200 {
			t.Fatalf("row %d weight %v out of range", r, weight.Num)
		}
		condition, _ := tbl.Value(r, "condition")
		if condition.Kind != anonymize.KindCategorical {
			t.Fatalf("row %d condition kind = %v", r, condition.Kind)
		}
	}
	if tbl.NumRows() != 200 {
		t.Errorf("rows = %d", tbl.NumRows())
	}
	// Default row count.
	if got := HealthRecords(0, 0).NumRows(); got != 100 {
		t.Errorf("default rows = %d, want 100", got)
	}
}

func TestHealthRecordsUsableByAnonymiser(t *testing.T) {
	tbl := HealthRecords(60, 3)
	anon, result, err := anonymize.KAnonymize(context.Background(), tbl, []string{"age", "height"}, 5)
	if err != nil {
		t.Fatalf("KAnonymize: %v", err)
	}
	classes, err := anon.EquivalenceClasses(context.Background(), []string{"age", "height"})
	if err != nil {
		t.Fatal(err)
	}
	for _, class := range classes {
		if len(class) < 5 && len(result.SuppressedRows) == 0 {
			t.Errorf("synthetic data could not be 5-anonymised: a class of %d rows", len(class))
		}
	}
}

func TestModelSpecDefaultsAndValidity(t *testing.T) {
	m := Model(ModelSpec{})
	if err := m.Validate(); err != nil {
		t.Fatalf("default synthetic model invalid: %v", err)
	}
	if len(m.Services) != 2 {
		t.Errorf("default services = %d", len(m.Services))
	}
	if len(m.Flows) != 8 {
		t.Errorf("default flows = %d, want 8", len(m.Flows))
	}
	// 3 actors per service + maintenance = 7.
	if len(m.Actors) != 7 {
		t.Errorf("default actors = %d, want 7", len(m.Actors))
	}
}

func TestModelScalesAndGenerates(t *testing.T) {
	small := Model(ModelSpec{Services: 1, FieldsPerService: 2})
	large := Model(ModelSpec{Services: 4, FieldsPerService: 4, ExtraActors: 3})
	if err := large.Validate(); err != nil {
		t.Fatalf("large synthetic model invalid: %v", err)
	}
	stateVariables := func(m *dataflow.Model) int { return 2 * len(m.Actors) * len(m.FieldUniverse()) }
	if stateVariables(large) <= stateVariables(small) {
		t.Error("larger spec should produce more state variables")
	}

	pSmall, err := core.Generate(small)
	if err != nil {
		t.Fatalf("Generate(small): %v", err)
	}
	pLarge, err := core.Generate(large)
	if err != nil {
		t.Fatalf("Generate(large): %v", err)
	}
	if len(pSmall.Warnings) != 0 || len(pLarge.Warnings) != 0 {
		t.Errorf("synthetic models should be policy-consistent; warnings: %v %v", pSmall.Warnings, pLarge.Warnings)
	}
	if pLarge.Stats().States <= pSmall.Stats().States {
		t.Errorf("larger model should have more states: %d vs %d",
			pLarge.Stats().States, pSmall.Stats().States)
	}
}

func TestSensitiveFieldsOf(t *testing.T) {
	m := Model(ModelSpec{Services: 3, FieldsPerService: 3})
	fields := SensitiveFieldsOf(m)
	if len(fields) != 3 {
		t.Errorf("sensitive fields = %v, want one per service", fields)
	}
}
