package accesscontrol

import (
	"strings"
	"testing"
)

// FuzzPolicyConstruction builds a policy from arbitrary grant material and
// checks the cross-writing contract: a grant is accepted by NewACL exactly
// when it validates, and for every accepted grant the three ways of writing
// it — the ACL itself, the ACL of an RBAC policy holding the same grant in a
// single role, and the concatenation of the two — answer every
// (field, permission) query identically, with Explain and ActorsWith
// consistent with Allows.
func FuzzPolicyConstruction(f *testing.F) {
	f.Add("doctor", "ehr", "name,diagnosis", "read,write", "address")
	f.Add("admin", "ehr", "*", "read", "diagnosis")
	f.Add("", "ehr", "name", "read", "name")
	f.Add("a", "d", "f", "not-a-permission", "f")
	f.Add(" spaced actor ", "d", "f,", "delete", "")
	f.Fuzz(func(t *testing.T, actor, datastore, fieldList, permList, probe string) {
		fields := strings.Split(fieldList, ",")
		var perms []Permission
		for _, s := range strings.Split(permList, ",") {
			if p, err := ParsePermission(s); err == nil {
				perms = append(perms, p)
			}
		}
		grant := Grant{Actor: actor, Datastore: datastore, Fields: fields, Permissions: perms}

		acl, err := NewACL(grant)
		if (err == nil) != (grant.Validate() == nil) {
			t.Fatalf("NewACL error %v disagrees with Grant.Validate error %v", err, grant.Validate())
		}
		if err != nil {
			return
		}

		rbac := NewRBAC()
		if err := rbac.AddRole(Role{Name: "fuzz-role", Grants: []Grant{grant}}); err != nil {
			t.Fatalf("RBAC rejected a grant the ACL accepted: %v", err)
		}
		if err := rbac.Assign(actor, "fuzz-role"); err != nil {
			t.Fatalf("assigning a valid actor failed: %v", err)
		}
		rbacACL := rbac.ACL()
		concatenated := MustACL(append(acl.Grants(), rbacACL.Grants()...)...)

		queryFields := append(append([]string{}, fields...), probe, "unrelated-field")
		for _, field := range queryFields {
			for _, perm := range []Permission{PermissionRead, PermissionWrite, PermissionDelete} {
				want := acl.Allows(actor, datastore, field, perm)
				if got := rbacACL.Allows(actor, datastore, field, perm); got != want {
					t.Fatalf("RBAC.ACL().Allows(%q,%q,%q,%s)=%v, ACL says %v",
						actor, datastore, field, perm, got, want)
				}
				if got := concatenated.Allows(actor, datastore, field, perm); got != want {
					t.Fatalf("concatenated ACL Allows(%q,%q,%q,%s)=%v, ACL says %v",
						actor, datastore, field, perm, got, want)
				}
				if d := acl.Explain(actor, datastore, field, perm); d.Allowed != want {
					t.Fatalf("Explain(%q,%q,%q,%s).Allowed=%v disagrees with Allows=%v",
						actor, datastore, field, perm, d.Allowed, want)
				}
				holders := acl.ActorsWith(datastore, field, perm)
				held := false
				for _, h := range holders {
					if h == actor {
						held = true
					}
				}
				if held != want {
					t.Fatalf("ActorsWith(%q,%q,%s)=%v lists actor %q: %v, Allows says %v",
						datastore, field, perm, holders, actor, held, want)
				}
			}
		}
	})
}
