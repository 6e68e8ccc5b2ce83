package scenario_test

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"privascope/internal/accesscontrol"
	"privascope/internal/core"
	"privascope/internal/dataflow"
	"privascope/internal/proptest"
	"privascope/internal/proptest/scenario"
	"privascope/internal/risk"
	"privascope/internal/synth"
)

// TestPropRandomModelValidates: every drawn model passes dataflow.Validate
// (MustBuild would panic otherwise) and carries a policy.
func TestPropRandomModelValidates(t *testing.T) {
	proptest.Run(t, func(seed int64, rng *rand.Rand) error {
		m := scenario.RandomModel(rng, scenario.RandomModelSpec{})
		if err := m.Validate(); err != nil {
			return err
		}
		return nil
	})
}

// TestPropRandomModelIsDeterministic: the generator is a pure function of the
// seed — two independent draws from the same seed fingerprint identically.
func TestPropRandomModelIsDeterministic(t *testing.T) {
	proptest.Run(t, func(seed int64, rng *rand.Rand) error {
		fp := func(s int64) string {
			m := scenario.RandomModel(rand.New(rand.NewSource(s)), scenario.RandomModelSpec{})
			f, err := dataflow.Fingerprint(m)
			if err != nil {
				t.Fatalf("fingerprint: %v", err)
			}
			return f
		}
		if a, b := fp(seed), fp(seed); a != b {
			t.Fatalf("same seed, different models: %s vs %s", a, b)
		}
		return nil
	})
}

func TestRandomModelCoversAllPolicyKinds(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 64 && len(seen) < 3; i++ {
		m := scenario.RandomModel(rand.New(rand.NewSource(int64(i))), scenario.RandomModelSpec{})
		for _, kind := range []string{"acl", "rbac", "composite"} {
			if strings.HasSuffix(m.Name, kind) {
				seen[kind] = true
			}
		}
	}
	if len(seen) < 3 {
		t.Fatalf("64 draws covered only policy kinds %v, want all three", seen)
	}
}

// TestPropPolicyKindsAnswerIdentically is the cross-kind invariant: the ACL,
// the RBAC-built ACL and the concatenated ACL written from the same grants
// must answer every (actor, datastore, field, permission) query identically.
func TestPropPolicyKindsAnswerIdentically(t *testing.T) {
	proptest.Run(t, func(seed int64, rng *rand.Rand) error {
		forced := scenario.PolicyACL
		m := scenario.RandomModel(rng, scenario.RandomModelSpec{Policy: forced})
		grants := accesscontrol.ACLOf(m.Policy).Grants()

		acl := scenario.PolicyFromGrants(scenario.PolicyACL, grants)
		rbac := scenario.PolicyFromGrants(scenario.PolicyRBAC, grants)
		comp := scenario.PolicyFromGrants(scenario.PolicyComposite, grants)

		perms := []accesscontrol.Permission{
			accesscontrol.PermissionRead, accesscontrol.PermissionWrite, accesscontrol.PermissionDelete}
		for _, a := range m.Actors {
			for _, d := range m.Datastores {
				for _, f := range d.Schema.Fields {
					for _, p := range perms {
						want := acl.Allows(a.ID, d.ID, f.Name, p)
						if got := rbac.Allows(a.ID, d.ID, f.Name, p); got != want {
							t.Fatalf("seed %d: RBAC-built ACL answers %v for (%s,%s,%s,%s), ACL answers %v",
								seed, got, a.ID, d.ID, f.Name, p, want)
						}
						if got := comp.Allows(a.ID, d.ID, f.Name, p); got != want {
							t.Fatalf("seed %d: concatenated ACL answers %v for (%s,%s,%s,%s), ACL answers %v",
								seed, got, a.ID, d.ID, f.Name, p, want)
						}
					}
				}
			}
		}
		return nil
	})
}

func TestPropRandomPopulationIsWellFormed(t *testing.T) {
	proptest.Run(t, func(seed int64, rng *rand.Rand) error {
		m := scenario.RandomModel(rng, scenario.RandomModelSpec{})
		profiles := scenario.RandomPopulation(rng, m, 8)
		if len(profiles) == 0 || len(profiles) > 8 {
			t.Fatalf("seed %d: population size %d outside [1,8]", seed, len(profiles))
		}
		return nil
	})
}

func TestPropRandomTableIsWellFormed(t *testing.T) {
	proptest.Run(t, func(seed int64, rng *rand.Rand) error {
		tab, qis := scenario.RandomTable(rng, 64)
		if got := tab.NumRows(); got < 2 || got > 65 {
			t.Fatalf("seed %d: table has %d rows, want within [2,65]", seed, got)
		}
		if len(qis) == 0 {
			t.Fatalf("seed %d: no quasi-identifier columns", seed)
		}
		for _, qi := range qis {
			if _, ok := tab.ColumnIndex(qi); !ok {
				t.Fatalf("seed %d: quasi-identifier column %q missing from table", seed, qi)
			}
		}
		return nil
	})
}

func TestPopulation(t *testing.T) {
	m := synth.Model(synth.ModelSpec{Services: 2, FieldsPerService: 3})
	profiles := scenario.Population(m, scenario.PopulationOptions{Users: 25, Seed: 11, SensitiveFields: synth.SensitiveFieldsOf(m)})
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
	sensitive := synth.SensitiveFieldsOf(m)
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
	again := scenario.Population(m, scenario.PopulationOptions{Users: 25, Seed: 11, SensitiveFields: synth.SensitiveFieldsOf(m)})
	if !reflect.DeepEqual(profiles, again) {
		t.Error("population generation is not deterministic")
	}
	// Defaults.
	if got := len(scenario.Population(m, scenario.PopulationOptions{})); got != 50 {
		t.Errorf("default users = %d, want 50", got)
	}
}

// TestPopulationOfLargeSyntheticModelIsAssessable: the maintenance actor of
// a synthetic model produces potential reads, and every drawn user is
// assessable against them.
func TestPopulationOfLargeSyntheticModelIsAssessable(t *testing.T) {
	large := synth.Model(synth.ModelSpec{Services: 4, FieldsPerService: 4, ExtraActors: 3})
	pLarge, err := core.Generate(large)
	if err != nil {
		t.Fatalf("Generate(large): %v", err)
	}
	analyzer, err := risk.NewAnalyzer(risk.Config{})
	if err != nil {
		t.Fatal(err)
	}
	profiles := scenario.Population(large, scenario.PopulationOptions{Users: 3, Seed: 5, SensitiveFields: synth.SensitiveFieldsOf(large)})
	for _, profile := range profiles {
		if _, err := analyzer.AnalyzeContext(context.Background(), pLarge, profile); err != nil {
			t.Fatalf("Analyze(%s): %v", profile.ID, err)
		}
	}
}
