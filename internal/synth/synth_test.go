package synth

import (
	"context"
	"reflect"
	"testing"

	"privascope/internal/anonymize"
	"privascope/internal/core"
	"privascope/internal/risk"
)

func TestHealthRecordsDeterministic(t *testing.T) {
	a := HealthRecords(HealthRecordsOptions{Rows: 40, Seed: 7})
	b := HealthRecords(HealthRecordsOptions{Rows: 40, Seed: 7})
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
	c := HealthRecords(HealthRecordsOptions{Rows: 40, Seed: 8})
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
	tbl := HealthRecords(HealthRecordsOptions{Rows: 200, Seed: 1})
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
	if got := HealthRecords(HealthRecordsOptions{}).NumRows(); got != 100 {
		t.Errorf("default rows = %d, want 100", got)
	}
}

func TestHealthRecordsUsableByAnonymiser(t *testing.T) {
	tbl := HealthRecords(HealthRecordsOptions{Rows: 60, Seed: 3})
	anon, result, err := anonymize.KAnonymize(context.Background(), tbl, []string{"age", "height"}, 5, anonymize.KAnonymizeOptions{
		InitialWidths: map[string]float64{"age": 10, "height": 10},
	})
	if err != nil {
		t.Fatalf("KAnonymize: %v", err)
	}
	ok, err := anonymize.IsKAnonymous(context.Background(), anon, []string{"age", "height"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !ok && len(result.SuppressedRows) == 0 {
		t.Error("synthetic data could not be 5-anonymised")
	}
}

func TestPopulation(t *testing.T) {
	m := Model(ModelSpec{Services: 2, FieldsPerService: 3})
	profiles := Population(m, PopulationOptions{Users: 25, Seed: 11, SensitiveFields: SensitiveFieldsOf(m)})
	if len(profiles) != 25 {
		t.Fatalf("profiles = %d", len(profiles))
	}
	services := map[string]bool{}
	for _, s := range m.ServiceIDs() {
		services[s] = true
	}
	for _, p := range profiles {
		if err := p.Validate(); err != nil {
			t.Fatalf("profile %s invalid: %v", p.ID, err)
		}
		for _, svc := range p.ConsentedServices {
			if !services[svc] {
				t.Errorf("profile %s consents to unknown service %q", p.ID, svc)
			}
		}
	}
	// Sensitive fields are biased high.
	sensitive := SensitiveFieldsOf(m)
	if len(sensitive) == 0 {
		t.Fatal("synthetic model has no sensitive fields")
	}
	for _, p := range profiles {
		for _, f := range sensitive {
			if p.Sensitivities[f] < 0.7 {
				t.Errorf("profile %s sensitivity of %s = %v, want >= 0.7", p.ID, f, p.Sensitivities[f])
			}
		}
	}
	// Determinism.
	again := Population(m, PopulationOptions{Users: 25, Seed: 11, SensitiveFields: SensitiveFieldsOf(m)})
	if !reflect.DeepEqual(profiles, again) {
		t.Error("population generation is not deterministic")
	}
	// Defaults.
	if got := len(Population(m, PopulationOptions{})); got != 50 {
		t.Errorf("default users = %d, want 50", got)
	}
}

func TestModelSpecDefaultsAndValidity(t *testing.T) {
	m := Model(ModelSpec{})
	if err := m.Validate(); err != nil {
		t.Fatalf("default synthetic model invalid: %v", err)
	}
	stats := m.Stats()
	if stats.Services != 2 {
		t.Errorf("default services = %d", stats.Services)
	}
	if stats.Flows != 8 {
		t.Errorf("default flows = %d, want 8", stats.Flows)
	}
	// 3 actors per service + maintenance = 7.
	if stats.Actors != 7 {
		t.Errorf("default actors = %d, want 7", stats.Actors)
	}
}

func TestModelScalesAndGenerates(t *testing.T) {
	small := Model(ModelSpec{Services: 1, FieldsPerService: 2})
	large := Model(ModelSpec{Services: 4, FieldsPerService: 4, ExtraActors: 3})
	if err := large.Validate(); err != nil {
		t.Fatalf("large synthetic model invalid: %v", err)
	}
	if large.Stats().StateVariables <= small.Stats().StateVariables {
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

	// The maintenance actor produces potential reads and is assessable.
	analyzer := risk.MustAnalyzer(risk.Config{})
	profiles := Population(large, PopulationOptions{Users: 3, Seed: 5, SensitiveFields: SensitiveFieldsOf(large)})
	for _, profile := range profiles {
		if _, err := analyzer.Analyze(pLarge, profile); err != nil {
			t.Fatalf("Analyze(%s): %v", profile.ID, err)
		}
	}
}

func TestSensitiveFieldsOf(t *testing.T) {
	m := Model(ModelSpec{Services: 3, FieldsPerService: 3})
	fields := SensitiveFieldsOf(m)
	if len(fields) != 3 {
		t.Errorf("sensitive fields = %v, want one per service", fields)
	}
}
