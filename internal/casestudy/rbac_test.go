package casestudy

import (
	"context"
	"testing"

	"privascope/internal/accesscontrol"
	"privascope/internal/core"
	"privascope/internal/risk"
)

func TestSurgeryRBACEquivalentToACL(t *testing.T) {
	acl := SurgeryACL()
	rbac := SurgeryRBAC()

	// Decision-level equivalence over every (actor, store, field, perm)
	// combination of the model.
	model := Surgery()
	perms := []accesscontrol.Permission{
		accesscontrol.PermissionRead, accesscontrol.PermissionWrite, accesscontrol.PermissionDelete,
	}
	for _, store := range model.Datastores {
		for _, field := range store.Schema.FieldNames() {
			for _, actor := range model.ActorIDs() {
				for _, perm := range perms {
					a := acl.Allows(actor, store.ID, field, perm)
					r := rbac.Allows(actor, store.ID, field, perm)
					if a != r {
						t.Errorf("ACL and RBAC disagree: %s %s %s.%s: acl=%v rbac=%v",
							actor, perm, store.ID, field, a, r)
					}
				}
			}
		}
	}
}

func TestSurgeryRBACProducesSameLTSAndRisk(t *testing.T) {
	aclLTS, err := core.Generate(Surgery())
	if err != nil {
		t.Fatal(err)
	}
	rbacLTS, err := core.Generate(SurgeryWithPolicy(SurgeryRBAC()))
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
	rbac := SurgeryRBAC()
	if got := rbac.RolesOf(ActorDoctor); len(got) != 1 || got[0] != RoleClinician {
		t.Errorf("RolesOf(doctor) = %v", got)
	}
	if got := len(rbac.Actors()); got != 5 {
		t.Errorf("actors with roles = %d, want 5", got)
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
// access-control policy, equivalent in effect to SurgeryACL. The paper
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
