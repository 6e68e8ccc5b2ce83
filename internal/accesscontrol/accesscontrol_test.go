package accesscontrol

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func readWrite() []Permission { return []Permission{PermissionRead, PermissionWrite} }

func sampleACL(t *testing.T) *ACL {
	t.Helper()
	acl, err := NewACL(
		Grant{Actor: "doctor", Datastore: "ehr", Fields: []string{AllFields}, Permissions: readWrite()},
		Grant{Actor: "nurse", Datastore: "ehr", Fields: []string{"name", "treatment"}, Permissions: []Permission{PermissionRead}},
		Grant{Actor: "administrator", Datastore: "ehr", Fields: []string{AllFields},
			Permissions: []Permission{PermissionRead, PermissionDelete}, Reason: "system maintenance"},
	)
	if err != nil {
		t.Fatalf("NewACL: %v", err)
	}
	return acl
}

func TestPermissionString(t *testing.T) {
	tests := []struct {
		p    Permission
		want string
	}{
		{PermissionRead, "read"},
		{PermissionWrite, "write"},
		{PermissionDelete, "delete"},
		{Permission(0), "permission(0)"},
	}
	for _, tt := range tests {
		if got := tt.p.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", int(tt.p), got, tt.want)
		}
	}
}

func TestParsePermission(t *testing.T) {
	for _, p := range []Permission{PermissionRead, PermissionWrite, PermissionDelete} {
		got, err := ParsePermission(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePermission(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePermission("execute"); err == nil {
		t.Error("ParsePermission(execute) should fail")
	}
}

func TestGrantValidate(t *testing.T) {
	tests := []struct {
		name    string
		grant   Grant
		wantErr bool
	}{
		{"valid", Grant{Actor: "a", Datastore: "d", Fields: []string{"f"}, Permissions: []Permission{PermissionRead}}, false},
		{"empty actor", Grant{Datastore: "d", Fields: []string{"f"}, Permissions: []Permission{PermissionRead}}, true},
		{"empty datastore", Grant{Actor: "a", Fields: []string{"f"}, Permissions: []Permission{PermissionRead}}, true},
		{"no fields", Grant{Actor: "a", Datastore: "d", Permissions: []Permission{PermissionRead}}, true},
		{"no permissions", Grant{Actor: "a", Datastore: "d", Fields: []string{"f"}}, true},
		{"invalid permission", Grant{Actor: "a", Datastore: "d", Fields: []string{"f"}, Permissions: []Permission{Permission(9)}}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.grant.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestACLAllows(t *testing.T) {
	acl := sampleACL(t)
	tests := []struct {
		actor, field string
		perm         Permission
		want         bool
	}{
		{"doctor", "diagnosis", PermissionRead, true},
		{"doctor", "diagnosis", PermissionWrite, true},
		{"doctor", "diagnosis", PermissionDelete, false},
		{"nurse", "treatment", PermissionRead, true},
		{"nurse", "diagnosis", PermissionRead, false},
		{"nurse", "treatment", PermissionWrite, false},
		{"administrator", "diagnosis", PermissionRead, true},
		{"administrator", "diagnosis", PermissionDelete, true},
		{"researcher", "diagnosis", PermissionRead, false},
	}
	for _, tt := range tests {
		if got := acl.Allows(tt.actor, "ehr", tt.field, tt.perm); got != tt.want {
			t.Errorf("Allows(%s, ehr, %s, %s) = %v, want %v", tt.actor, tt.field, tt.perm, got, tt.want)
		}
	}
	// Unknown datastore always denied.
	if acl.Allows("doctor", "unknown", "diagnosis", PermissionRead) {
		t.Error("access to unknown datastore allowed")
	}
}

func TestACLExplain(t *testing.T) {
	acl := sampleACL(t)
	d := acl.Explain("administrator", "ehr", "diagnosis", PermissionRead)
	if !d.Allowed {
		t.Fatal("expected allowed")
	}
	if d.Reason == "" {
		t.Error("allowed decision should carry a reason")
	}
	deny := acl.Explain("researcher", "ehr", "diagnosis", PermissionRead)
	if deny.Allowed || deny.Reason == "" {
		t.Errorf("deny decision = %+v", deny)
	}
}

func TestACLActorsWith(t *testing.T) {
	acl := sampleACL(t)
	got := acl.ActorsWith("ehr", "diagnosis", PermissionRead)
	want := []string{"administrator", "doctor"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ActorsWith(ehr, diagnosis, read) = %v, want %v", got, want)
	}
	got = acl.ActorsWith("ehr", "treatment", PermissionRead)
	want = []string{"administrator", "doctor", "nurse"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ActorsWith(ehr, treatment, read) = %v, want %v", got, want)
	}
	if got := acl.ActorsWith("ehr", "name", PermissionWrite); !reflect.DeepEqual(got, []string{"doctor"}) {
		t.Errorf("ActorsWith(ehr, name, write) = %v", got)
	}
}

func TestACLActors(t *testing.T) {
	acl := sampleACL(t)
	want := []string{"administrator", "doctor", "nurse"}
	if got := acl.Actors(); !reflect.DeepEqual(got, want) {
		t.Errorf("Actors() = %v, want %v", got, want)
	}
}

func TestACLWithoutActor(t *testing.T) {
	acl := sampleACL(t)
	mitigated := acl.Restrict("administrator", "ehr", nil)
	if mitigated.Allows("administrator", "ehr", "diagnosis", PermissionRead) {
		t.Error("administrator should lose read access after restricting them to no fields")
	}
	if !mitigated.Allows("doctor", "ehr", "diagnosis", PermissionRead) {
		t.Error("doctor access should be preserved")
	}
	// Original is untouched.
	if !acl.Allows("administrator", "ehr", "diagnosis", PermissionRead) {
		t.Error("Restrict mutated the original policy")
	}
}

func TestACLRestrict(t *testing.T) {
	acl := sampleACL(t)
	restricted := acl.Restrict("administrator", "ehr", []string{"name"})
	if restricted.Allows("administrator", "ehr", "diagnosis", PermissionRead) {
		t.Error("restricted administrator should not read diagnosis")
	}
	if !restricted.Allows("administrator", "ehr", "name", PermissionRead) {
		t.Error("restricted administrator should still read name")
	}
	if !restricted.Allows("doctor", "ehr", "diagnosis", PermissionWrite) {
		t.Error("other actors must be unaffected by Restrict")
	}

	// Restricting to an empty field list removes the grants entirely.
	none := acl.Restrict("administrator", "ehr", nil)
	if len(none.ActorsWith("ehr", "name", PermissionRead)) != 2 {
		t.Errorf("ActorsWith after empty restrict = %v", none.ActorsWith("ehr", "name", PermissionRead))
	}
}

func TestACLGrantsIsCopy(t *testing.T) {
	acl := sampleACL(t)
	grants := acl.Grants()
	grants[0].Actor = "mallory"
	if acl.Grants()[0].Actor == "mallory" {
		t.Error("Grants() must return a copy")
	}
}

func TestACLAddCopiesSlices(t *testing.T) {
	fields := []string{"name"}
	perms := []Permission{PermissionRead}
	acl, err := NewACL(Grant{Actor: "a", Datastore: "d", Fields: fields, Permissions: perms})
	if err != nil {
		t.Fatal(err)
	}
	fields[0] = "diagnosis"
	perms[0] = PermissionDelete
	if acl.Allows("a", "d", "diagnosis", PermissionRead) {
		t.Error("ACL must copy the grant's field slice at the boundary")
	}
	if !acl.Allows("a", "d", "name", PermissionRead) {
		t.Error("original grant lost after caller mutation")
	}
}

func TestRBAC(t *testing.T) {
	r := NewRBAC()
	if err := r.AddRole(Role{Name: "clinician", Grants: []Grant{
		{Actor: "ignored", Datastore: "ehr", Fields: []string{AllFields}, Permissions: readWrite()},
	}}); err != nil {
		t.Fatalf("AddRole: %v", err)
	}
	if err := r.AddRole(Role{Name: "support", Grants: []Grant{
		{Actor: "ignored", Datastore: "appointments", Fields: []string{"name", "appointment"}, Permissions: []Permission{PermissionRead}},
	}}); err != nil {
		t.Fatalf("AddRole: %v", err)
	}
	if err := r.Assign("doctor", "clinician"); err != nil {
		t.Fatalf("Assign: %v", err)
	}
	if err := r.Assign("receptionist", "support"); err != nil {
		t.Fatalf("Assign: %v", err)
	}

	// A role granted twice to one actor expands once; the second role keeps
	// its grant's own reason.
	if err := r.Assign("doctor", "clinician"); err != nil {
		t.Fatalf("Assign: %v", err)
	}
	if err := r.AddRole(Role{Name: "auditor", Grants: []Grant{
		{Datastore: "ehr", Fields: []string{"name"}, Permissions: []Permission{PermissionRead}, Reason: "audit"},
	}}); err != nil {
		t.Fatalf("AddRole: %v", err)
	}
	if err := r.Assign("doctor", "auditor"); err != nil {
		t.Fatalf("Assign: %v", err)
	}

	acl := r.ACL()
	// Actors sorted, each actor's roles in assignment order, each role's
	// grants in declared order; the actor stands in for the role.
	want := []Grant{
		{Actor: "doctor", Datastore: "ehr", Fields: []string{AllFields}, Permissions: readWrite(), Reason: `role "clinician"`},
		{Actor: "doctor", Datastore: "ehr", Fields: []string{"name"}, Permissions: []Permission{PermissionRead}, Reason: "audit"},
		{Actor: "receptionist", Datastore: "appointments", Fields: []string{"name", "appointment"}, Permissions: []Permission{PermissionRead}, Reason: `role "support"`},
	}
	if got := acl.Grants(); !reflect.DeepEqual(got, want) {
		t.Errorf("ACL().Grants() =\n%+v\nwant\n%+v", got, want)
	}
	if !acl.Allows("doctor", "ehr", "diagnosis", PermissionWrite) {
		t.Error("doctor should write ehr via clinician role")
	}
	if acl.Allows("receptionist", "ehr", "diagnosis", PermissionRead) {
		t.Error("receptionist must not read ehr")
	}
	if got := acl.ActorsWith("ehr", "diagnosis", PermissionRead); !reflect.DeepEqual(got, []string{"doctor"}) {
		t.Errorf("ActorsWith = %v", got)
	}
	if got := acl.Actors(); !reflect.DeepEqual(got, []string{"doctor", "receptionist"}) {
		t.Errorf("Actors() = %v", got)
	}
	d := acl.Explain("doctor", "ehr", "diagnosis", PermissionRead)
	if want := `role "clinician": doctor may read ehr.diagnosis`; !d.Allowed || d.Reason != want {
		t.Errorf("Explain = %+v, want reason %q", d, want)
	}
}

func TestRBACErrors(t *testing.T) {
	r := NewRBAC()
	if err := r.AddRole(Role{Name: ""}); err == nil {
		t.Error("empty role name accepted")
	}
	if err := r.AddRole(Role{Name: "x", Grants: []Grant{{Datastore: "", Fields: []string{"f"}, Permissions: []Permission{PermissionRead}}}}); err == nil {
		t.Error("invalid role grant accepted")
	}
	if err := r.Assign("a", "missing"); err == nil {
		t.Error("assignment to unregistered role accepted")
	}
	if err := r.AddRole(Role{Name: "dup", Grants: []Grant{{Datastore: "d", Fields: []string{"f"}, Permissions: []Permission{PermissionRead}}}}); err != nil {
		t.Fatal(err)
	}
	if err := r.AddRole(Role{Name: "dup"}); err == nil {
		t.Error("duplicate role accepted")
	}
	if err := r.Assign(" ", "dup"); err == nil {
		t.Error("empty actor accepted")
	}
	// Duplicate assignment is a no-op, not an error.
	if err := r.Assign("a", "dup"); err != nil {
		t.Fatal(err)
	}
	if err := r.Assign("a", "dup"); err != nil {
		t.Errorf("repeated Assign returned error: %v", err)
	}
	if got := r.ACL().Grants(); len(got) != 1 {
		t.Errorf("grants after duplicate assign = %v", got)
	}
}

// TestComposite: a policy mixing an ACL with RBAC roles is the
// concatenation of the two grant lists, which allows what either half
// allows and explains with the first grant that matches.
func TestComposite(t *testing.T) {
	acl := MustACL(Grant{Actor: "researcher", Datastore: "anon_ehr", Fields: []string{AllFields}, Permissions: []Permission{PermissionRead}})
	rbac := NewRBAC()
	if err := rbac.AddRole(Role{Name: "clinician", Grants: []Grant{
		{Datastore: "ehr", Fields: []string{AllFields}, Permissions: readWrite()},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := rbac.Assign("doctor", "clinician"); err != nil {
		t.Fatal(err)
	}
	c := MustACL(append(acl.Grants(), rbac.ACL().Grants()...)...)

	if !c.Allows("researcher", "anon_ehr", "weight_anon", PermissionRead) {
		t.Error("composite should allow via the ACL half")
	}
	if !c.Allows("doctor", "ehr", "diagnosis", PermissionWrite) {
		t.Error("composite should allow via the RBAC half")
	}
	if c.Allows("researcher", "ehr", "diagnosis", PermissionRead) {
		t.Error("composite must deny when neither half allows")
	}
	if d := c.Explain("doctor", "ehr", "diagnosis", PermissionRead); d.Reason != `role "clinician": doctor may read ehr.diagnosis` {
		t.Errorf("Explain = %+v", d)
	}
	if got := c.ActorsWith("ehr", "diagnosis", PermissionRead); !reflect.DeepEqual(got, []string{"doctor"}) {
		t.Errorf("ActorsWith = %v", got)
	}
}

func TestDiff(t *testing.T) {
	before := sampleACL(t)
	after := before.Restrict("administrator", "ehr", nil)
	scope := Scope{
		Actors:     []string{"administrator", "doctor", "nurse"},
		Datastores: map[string][]string{"ehr": {"name", "diagnosis", "treatment"}},
	}
	changes := Diff(before, after, scope)
	if len(changes) == 0 {
		t.Fatal("expected at least one change")
	}
	for _, c := range changes {
		if c.Actor != "administrator" {
			t.Errorf("unexpected change for actor %q: %s", c.Actor, c)
		}
		if !c.Before || c.After {
			t.Errorf("expected allowed->denied, got %s", c)
		}
	}
	// administrator had read+delete on 3 fields = 6 changes.
	if len(changes) != 6 {
		t.Errorf("len(changes) = %d, want 6", len(changes))
	}
	if got := changes[0].String(); got == "" {
		t.Error("AccessChange.String() empty")
	}
	// Identical policies produce no diff.
	if d := Diff(before, before, scope); len(d) != 0 {
		t.Errorf("Diff(p, p) = %v, want empty", d)
	}
}

// TestDiffMatchesPointwiseAllows: on random pairs of policies, Diff lists
// exactly the (store, field, actor, permission) points, in scope order, where
// the two policies' Allows disagree — what it computed before it indexed the
// grants.
func TestDiffMatchesPointwiseAllows(t *testing.T) {
	names := []string{"a", "b", "c"}
	rng := rand.New(rand.NewSource(1))
	random := func() *ACL {
		acl := &ACL{}
		for n := rng.Intn(12); n > 0; n-- {
			g := Grant{Actor: names[rng.Intn(3)], Datastore: "s" + names[rng.Intn(3)],
				Fields: []string{[]string{"x", "y", AllFields}[rng.Intn(3)]}, Permissions: []Permission{Permission(1 + rng.Intn(3))}}
			if rng.Intn(2) == 0 {
				g.Fields = append(g.Fields, "z")
				g.Permissions = append(g.Permissions, Permission(1+rng.Intn(3)))
			}
			if err := acl.Add(g); err != nil {
				t.Fatal(err)
			}
		}
		return acl
	}
	scope := Scope{Actors: []string{"c", "a", "b", "d"},
		Datastores: map[string][]string{"sb": {"y", "x", "z", "w"}, "sa": {"z", "x"}, "sd": {"x"}}}
	for round := 0; round < 200; round++ {
		before, after := random(), random()
		var want []AccessChange
		for _, ds := range []string{"sa", "sb", "sd"} {
			fields := append([]string(nil), scope.Datastores[ds]...)
			sort.Strings(fields)
			for _, field := range fields {
				for _, actor := range []string{"a", "b", "c", "d"} {
					for perm := PermissionRead; perm <= PermissionDelete; perm++ {
						if b, a := before.Allows(actor, ds, field, perm), after.Allows(actor, ds, field, perm); b != a {
							want = append(want, AccessChange{Actor: actor, Datastore: ds, Field: field, Perm: perm, Before: b, After: a})
						}
					}
				}
			}
		}
		if got := Diff(before, after, scope); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: Diff = %v, want %v", round, got, want)
		}
	}
}

func TestACLAllowsConsistentWithActorsWith(t *testing.T) {
	// Property: for random grants, every actor returned by ActorsWith is
	// allowed, and allowed actors appear in ActorsWith.
	actors := []string{"a", "b", "c"}
	stores := []string{"s1", "s2"}
	fields := []string{"f1", "f2", "f3"}
	f := func(seed uint32) bool {
		acl := &ACL{}
		n := int(seed%5) + 1
		x := seed
		next := func(m int) int {
			x = x*1664525 + 1013904223
			return int(x) % m
		}
		for i := 0; i < n; i++ {
			g := Grant{
				Actor:       actors[next(len(actors))],
				Datastore:   stores[next(len(stores))],
				Fields:      []string{fields[next(len(fields))]},
				Permissions: []Permission{PermissionRead},
			}
			if err := acl.Add(g); err != nil {
				return false
			}
		}
		for _, ds := range stores {
			for _, field := range fields {
				with := acl.ActorsWith(ds, field, PermissionRead)
				inSet := make(map[string]bool)
				for _, a := range with {
					inSet[a] = true
					if !acl.Allows(a, ds, field, PermissionRead) {
						return false
					}
				}
				for _, a := range actors {
					if acl.Allows(a, ds, field, PermissionRead) && !inSet[a] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
