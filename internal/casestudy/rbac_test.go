package casestudy

import (
	"bytes"
	"context"
	"encoding/json"
	"slices"
	"testing"

	"privascope/internal/accesscontrol"
	"privascope/internal/core"
	"privascope/internal/dataflow"
	"privascope/internal/risk"
)

func TestSurgeryRBACEquivalentToACL(t *testing.T) {
	acl := SurgeryACL()
	rbac := SurgeryRBAC().ACL()

	// Decision-level equivalence over every (actor, store, field, perm)
	// combination of the model, explanation text included: each role grant
	// carries the reason of the ACL grant it stands for.
	model := Surgery()
	perms := []accesscontrol.Permission{
		accesscontrol.PermissionRead, accesscontrol.PermissionWrite, accesscontrol.PermissionDelete,
	}
	for _, store := range model.Datastores {
		for _, field := range store.Schema.FieldNames() {
			for _, perm := range perms {
				if a, r := acl.ActorsWith(store.ID, field, perm), rbac.ActorsWith(store.ID, field, perm); !slices.Equal(a, r) {
					t.Errorf("ActorsWith(%s.%s, %s): acl=%v rbac=%v", store.ID, field, perm, a, r)
				}
				for _, actor := range model.ActorIDs() {
					a := acl.Explain(actor, store.ID, field, perm)
					r := rbac.Explain(actor, store.ID, field, perm)
					if a != r {
						t.Errorf("ACL and RBAC disagree: %s %s %s.%s: acl=%+v rbac=%+v",
							actor, perm, store.ID, field, a, r)
					}
					if got := rbac.Allows(actor, store.ID, field, perm); got != a.Allowed {
						t.Errorf("RBAC Allows(%s %s %s.%s) = %v, Explain says %v", actor, perm, store.ID, field, got, a.Allowed)
					}
				}
			}
		}
	}
}

// TestSurgeryRBACRoundTrips: a model whose policy was written as RBAC is
// saved and loaded like any other — Marshal writes its grants, so the loaded
// model has the same fingerprint and generates the same privacy LTS.
func TestSurgeryRBACRoundTrips(t *testing.T) {
	m := SurgeryWithPolicy(SurgeryRBAC().ACL())
	data, err := dataflow.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := dataflow.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	want, err := dataflow.Fingerprint(m)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := dataflow.Fingerprint(loaded); err != nil || got != want {
		t.Errorf("fingerprint after round trip = %s (%v), want %s", got, err, want)
	}
	ltsJSON := func(m *dataflow.Model) []byte {
		p, err := core.Generate(m)
		if err != nil {
			t.Fatal(err)
		}
		out, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if a, b := ltsJSON(m), ltsJSON(loaded); !bytes.Equal(a, b) {
		t.Error("the loaded model generates a different privacy LTS")
	}
}

func TestSurgeryRBACProducesSameLTSAndRisk(t *testing.T) {
	aclLTS, err := core.Generate(Surgery())
	if err != nil {
		t.Fatal(err)
	}
	rbacLTS, err := core.Generate(SurgeryWithPolicy(SurgeryRBAC().ACL()))
	if err != nil {
		t.Fatal(err)
	}
	if len(rbacLTS.Warnings) != 0 {
		t.Errorf("RBAC model warnings: %v", rbacLTS.Warnings)
	}
	if aclLTS.Stats() != rbacLTS.Stats() {
		t.Errorf("LTS stats differ: acl=%+v rbac=%+v", aclLTS.Stats(), rbacLTS.Stats())
	}

	analyzer, err := risk.NewAnalyzer(risk.Config{})
	if err != nil {
		t.Fatal(err)
	}
	profile := PatientProfile()
	aclAssessment, err := analyzer.AnalyzeContext(context.Background(), aclLTS, profile)
	if err != nil {
		t.Fatal(err)
	}
	rbacAssessment, err := analyzer.AnalyzeContext(context.Background(), rbacLTS, profile)
	if err != nil {
		t.Fatal(err)
	}
	if aclAssessment.OverallRisk != rbacAssessment.OverallRisk {
		t.Errorf("overall risk differs: acl=%v rbac=%v", aclAssessment.OverallRisk, rbacAssessment.OverallRisk)
	}
	if aclAssessment.MaxRiskFor(ActorAdministrator) != rbacAssessment.MaxRiskFor(ActorAdministrator) {
		t.Errorf("administrator risk differs: acl=%v rbac=%v",
			aclAssessment.MaxRiskFor(ActorAdministrator), rbacAssessment.MaxRiskFor(ActorAdministrator))
	}
	if len(aclAssessment.Findings) != len(rbacAssessment.Findings) {
		t.Errorf("finding counts differ: acl=%d rbac=%d",
			len(aclAssessment.Findings), len(rbacAssessment.Findings))
	}
}

func TestSurgeryRBACRoleAssignments(t *testing.T) {
	acl := SurgeryRBAC().ACL()
	if got := len(acl.Actors()); got != 5 {
		t.Errorf("actors with roles = %d, want 5", got)
	}
	// The doctor holds exactly the clinical-staff role's grants, in the
	// role's declared order.
	var stores []string
	for _, g := range acl.Grants() {
		if g.Actor == ActorDoctor {
			stores = append(stores, g.Datastore)
		}
	}
	if want := []string{StoreAppointments, StoreEHR, StoreAnonEHR}; !slices.Equal(stores, want) {
		t.Errorf("doctor's grants cover %v, want %v", stores, want)
	}
}

// Role names used by the RBAC variant of the surgery policy.
const (
	RoleReception  = "reception-staff"
	RoleClinician  = "clinical-staff"
	RoleNursing    = "nursing-staff"
	RoleSysAdmin   = "system-administrator"
	RoleResearcher = "research-staff"
)

// SurgeryRBAC returns a role-based formulation of the surgery's original
// access-control policy, whose ACL answers exactly like SurgeryACL. The paper
// assumes "traditional access control lists and role-based access control";
// this fixture exercises the RBAC half: the generated privacy LTS and the
// risk analysis results are identical to the ACL-based model (see the tests
// in this package).
func SurgeryRBAC() *accesscontrol.RBAC {
	rw := []accesscontrol.Permission{accesscontrol.PermissionRead, accesscontrol.PermissionWrite}
	r := []accesscontrol.Permission{accesscontrol.PermissionRead}
	rwd := []accesscontrol.Permission{accesscontrol.PermissionRead, accesscontrol.PermissionWrite, accesscontrol.PermissionDelete}
	rd := []accesscontrol.Permission{accesscontrol.PermissionRead, accesscontrol.PermissionDelete}
	all := []string{accesscontrol.AllFields}

	rbac := accesscontrol.NewRBAC()
	mustAddRole(rbac, accesscontrol.Role{Name: RoleReception, Grants: []accesscontrol.Grant{
		{Datastore: StoreAppointments, Fields: all, Permissions: rw, Reason: "appointment booking"},
	}})
	mustAddRole(rbac, accesscontrol.Role{Name: RoleClinician, Grants: []accesscontrol.Grant{
		{Datastore: StoreAppointments, Fields: all, Permissions: r, Reason: "consultation preparation"},
		{Datastore: StoreEHR, Fields: all, Permissions: rw, Reason: "clinical record keeping"},
		{Datastore: StoreAnonEHR, Fields: all, Permissions: rw, Reason: "research extract preparation"},
	}})
	mustAddRole(rbac, accesscontrol.Role{Name: RoleNursing, Grants: []accesscontrol.Grant{
		{Datastore: StoreEHR, Fields: []string{FieldName, FieldTreatment}, Permissions: r, Reason: "treatment administration"},
	}})
	mustAddRole(rbac, accesscontrol.Role{Name: RoleSysAdmin, Grants: []accesscontrol.Grant{
		{Datastore: StoreAppointments, Fields: all, Permissions: rwd, Reason: "system maintenance"},
		{Datastore: StoreEHR, Fields: all, Permissions: rwd, Reason: "system maintenance"},
		{Datastore: StoreAnonEHR, Fields: all, Permissions: rd, Reason: "system maintenance"},
	}})
	mustAddRole(rbac, accesscontrol.Role{Name: RoleResearcher, Grants: []accesscontrol.Grant{
		{Datastore: StoreAnonEHR, Fields: all, Permissions: r, Reason: "medical research"},
	}})

	mustAssign(rbac, ActorReceptionist, RoleReception)
	mustAssign(rbac, ActorDoctor, RoleClinician)
	mustAssign(rbac, ActorNurse, RoleNursing)
	mustAssign(rbac, ActorAdministrator, RoleSysAdmin)
	mustAssign(rbac, ActorResearcher, RoleResearcher)
	return rbac
}

func mustAddRole(rbac *accesscontrol.RBAC, role accesscontrol.Role) {
	if err := rbac.AddRole(role); err != nil {
		panic(err)
	}
}

func mustAssign(rbac *accesscontrol.RBAC, actor, role string) {
	if err := rbac.Assign(actor, role); err != nil {
		panic(err)
	}
}
