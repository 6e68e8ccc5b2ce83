package scenario_test

import (
	"math/rand"
	"strings"
	"testing"

	"privascope/internal/accesscontrol"
	"privascope/internal/dataflow"
	"privascope/internal/proptest"
	"privascope/internal/proptest/scenario"
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
