// Package accesscontrol provides the access-control substrate required by the
// paper's modelling framework (Section II-A): for every datastore, a
// description of "which actors have access to that data".
//
// The paper assumes "traditional access control lists and role-based access
// control". Both are written here, and both end up as one representation:
//
//   - ACL: explicit (actor, datastore, field, permission) grants. It is the
//     only Policy.
//   - RBAC: permissions attached to roles, with actors assigned to roles. Its
//     effective permissions are the assignments composed with the role
//     grants, which is an ACL: RBAC.ACL expands it into one.
//
// Policies answer field-level questions ("may the Administrator read the
// diagnosis field of the EHR store?") because the paper assumes "datastore
// interfaces that support querying and display of individual fields".
package accesscontrol

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Permission is the kind of access being requested on a datastore field.
type Permission int

// Permissions. They begin at one so the zero value is invalid and cannot be
// granted by accident.
const (
	PermissionRead Permission = iota + 1
	PermissionWrite
	PermissionDelete
)

var permissionNames = map[Permission]string{
	PermissionRead:   "read",
	PermissionWrite:  "write",
	PermissionDelete: "delete",
}

// String returns the lower-case name of the permission.
func (p Permission) String() string {
	if s, ok := permissionNames[p]; ok {
		return s
	}
	return fmt.Sprintf("permission(%d)", int(p))
}

// Valid reports whether p is a defined permission.
func (p Permission) Valid() bool {
	_, ok := permissionNames[p]
	return ok
}

// ParsePermission converts a permission name back into a Permission.
func ParsePermission(s string) (Permission, error) {
	for p, name := range permissionNames {
		if name == strings.ToLower(strings.TrimSpace(s)) {
			return p, nil
		}
	}
	return 0, fmt.Errorf("accesscontrol: unknown permission %q", s)
}

// AllFields is the wildcard used in grants to mean "every field of the
// datastore's schema".
const AllFields = "*"

// Decision is the result of a policy check, including the grant that allowed
// it so analysis output can explain *why* an actor has access.
type Decision struct {
	// Allowed reports whether the access is permitted.
	Allowed bool
	// Reason is a human-readable explanation of the decision.
	Reason string
}

// Policy is the access-control policy a data-flow model carries. The
// unexported method seals it: *ACL is its only implementation, however the
// policy was written, and ACLOf returns it. A Policy is safe for concurrent
// readers once fully built.
type Policy interface {
	// Allows reports whether the actor may exercise the permission on the
	// named field of the datastore.
	Allows(actor, datastore, field string, perm Permission) bool
	// ActorsWith returns the sorted set of actors that hold the permission
	// on the named field of the datastore. This drives the "could identify"
	// state variables of the privacy model (Section II-B).
	ActorsWith(datastore, field string, perm Permission) []string
	// acl returns the policy's grant list.
	acl() *ACL
}

// ACLOf returns the grant list behind a policy, or an empty ACL for a nil
// one.
func ACLOf(p Policy) *ACL {
	if p == nil {
		return &ACL{}
	}
	return p.acl()
}

// Grant is a single ACL entry: an actor may exercise the listed permissions
// on the listed fields of a datastore. Fields may be the AllFields wildcard.
type Grant struct {
	Actor       string       `json:"actor"`
	Datastore   string       `json:"datastore"`
	Fields      []string     `json:"fields"`
	Permissions []Permission `json:"permissions"`
	// Reason documents why the grant exists (e.g. "system maintenance");
	// it is surfaced in risk reports.
	Reason string `json:"reason,omitempty"`
}

// Validate checks the grant for empty identifiers and invalid permissions.
func (g Grant) Validate() error {
	if strings.TrimSpace(g.Actor) == "" {
		return errors.New("accesscontrol: grant actor must not be empty")
	}
	if strings.TrimSpace(g.Datastore) == "" {
		return fmt.Errorf("accesscontrol: grant for actor %q has empty datastore", g.Actor)
	}
	if len(g.Fields) == 0 {
		return fmt.Errorf("accesscontrol: grant for actor %q on %q lists no fields", g.Actor, g.Datastore)
	}
	if len(g.Permissions) == 0 {
		return fmt.Errorf("accesscontrol: grant for actor %q on %q lists no permissions", g.Actor, g.Datastore)
	}
	for _, p := range g.Permissions {
		if !p.Valid() {
			return fmt.Errorf("accesscontrol: grant for actor %q on %q has invalid permission %d", g.Actor, g.Datastore, int(p))
		}
	}
	return nil
}

func (g Grant) covers(field string) bool {
	for _, f := range g.Fields {
		if f == AllFields || f == field {
			return true
		}
	}
	return false
}

func (g Grant) hasPermission(perm Permission) bool {
	for _, p := range g.Permissions {
		if p == perm {
			return true
		}
	}
	return false
}

// ACL is an access-control-list policy: a flat list of grants.
// The zero value is an empty (deny-everything) policy.
type ACL struct {
	grants []Grant
	actors map[string]bool
}

// NewACL builds an ACL from the given grants, validating each.
func NewACL(grants ...Grant) (*ACL, error) {
	a := &ACL{actors: make(map[string]bool)}
	for _, g := range grants {
		if err := a.Add(g); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// MustACL is like NewACL but panics on error; for fixtures and tests.
func MustACL(grants ...Grant) *ACL {
	a, err := NewACL(grants...)
	if err != nil {
		panic(err)
	}
	return a
}

// Add appends a grant to the policy.
func (a *ACL) Add(g Grant) error {
	if err := g.Validate(); err != nil {
		return err
	}
	if a.actors == nil {
		a.actors = make(map[string]bool)
	}
	g.Fields = append([]string(nil), g.Fields...)
	g.Permissions = append([]Permission(nil), g.Permissions...)
	a.grants = append(a.grants, g)
	a.actors[g.Actor] = true
	return nil
}

// Grants returns a copy of the grants in the policy.
func (a *ACL) Grants() []Grant {
	out := make([]Grant, len(a.grants))
	copy(out, a.grants)
	return out
}

// Actors returns the sorted set of actors that appear in any grant.
func (a *ACL) Actors() []string { return sortedSet(a.actors) }

func (a *ACL) acl() *ACL { return a }

// Allows implements Policy. Unlike Explain it never formats a reason, so
// bulk callers (policy diffs, compilation) stay allocation-free.
func (a *ACL) Allows(actor, datastore, field string, perm Permission) bool {
	for i := range a.grants {
		g := &a.grants[i]
		if g.Actor == actor && g.Datastore == datastore && g.covers(field) && g.hasPermission(perm) {
			return true
		}
	}
	return false
}

// Explain is like Allows but also returns the reasoning, for reports.
func (a *ACL) Explain(actor, datastore, field string, perm Permission) Decision {
	for _, g := range a.grants {
		if g.Actor != actor || g.Datastore != datastore {
			continue
		}
		if g.covers(field) && g.hasPermission(perm) {
			reason := g.Reason
			if reason == "" {
				reason = "explicit grant"
			}
			return Decision{Allowed: true, Reason: fmt.Sprintf("%s: %s may %s %s.%s",
				reason, actor, perm, datastore, field)}
		}
	}
	return Decision{Allowed: false, Reason: fmt.Sprintf("no grant allows %s to %s %s.%s",
		actor, perm, datastore, field)}
}

// ActorsWith implements Policy.
func (a *ACL) ActorsWith(datastore, field string, perm Permission) []string {
	set := make(map[string]bool)
	for _, g := range a.grants {
		if g.Datastore == datastore && g.covers(field) && g.hasPermission(perm) {
			set[g.Actor] = true
		}
	}
	return sortedSet(set)
}

// Restrict returns a copy of the ACL where the actor's grants on the
// datastore are narrowed to only the listed fields. Grants that end up with
// no fields are dropped, so restricting to no fields at all removes the
// actor's access to the datastore — the mitigation of case study IV-A ("The
// access policies were changed accordingly").
func (a *ACL) Restrict(actor, datastore string, fields []string) *ACL {
	allowed := make(map[string]bool, len(fields))
	for _, f := range fields {
		allowed[f] = true
	}
	out := &ACL{actors: make(map[string]bool)}
	for _, g := range a.grants {
		if g.Actor != actor || g.Datastore != datastore {
			_ = out.Add(g)
			continue
		}
		var kept []string
		for _, f := range g.Fields {
			if f == AllFields {
				// A wildcard grant is replaced by the explicit allowed list.
				kept = append([]string(nil), fields...)
				break
			}
			if allowed[f] {
				kept = append(kept, f)
			}
		}
		if len(kept) == 0 {
			continue
		}
		ng := g
		ng.Fields = kept
		_ = out.Add(ng)
	}
	return out
}

var _ Policy = (*ACL)(nil)

// Role is a named bundle of grants used by RBAC policies. The Actor field of
// the embedded grants is ignored; the role name stands in for it.
type Role struct {
	Name   string  `json:"name"`
	Grants []Grant `json:"grants"`
}

// RBAC writes a policy as roles that hold grants and actors assigned to
// roles. It answers no queries itself: ACL expands it into the ACL it
// stands for.
type RBAC struct {
	roles       map[string]Role
	assignments map[string][]string // actor -> role names, in assignment order
}

// NewRBAC returns an empty RBAC policy.
func NewRBAC() *RBAC {
	return &RBAC{
		roles:       make(map[string]Role),
		assignments: make(map[string][]string),
	}
}

// AddRole registers a role. Re-registering a role name is an error.
func (r *RBAC) AddRole(role Role) error {
	if strings.TrimSpace(role.Name) == "" {
		return errors.New("accesscontrol: role name must not be empty")
	}
	if _, ok := r.roles[role.Name]; ok {
		return fmt.Errorf("accesscontrol: role %q already registered", role.Name)
	}
	for i, g := range role.Grants {
		g.Actor = role.Name
		if err := g.Validate(); err != nil {
			return fmt.Errorf("role %q grant %d: %w", role.Name, i, err)
		}
	}
	r.roles[role.Name] = role
	return nil
}

// Assign adds the actor to the named role.
func (r *RBAC) Assign(actor, roleName string) error {
	if strings.TrimSpace(actor) == "" {
		return errors.New("accesscontrol: actor must not be empty")
	}
	if _, ok := r.roles[roleName]; !ok {
		return fmt.Errorf("accesscontrol: role %q is not registered", roleName)
	}
	for _, existing := range r.assignments[actor] {
		if existing == roleName {
			return nil
		}
	}
	r.assignments[actor] = append(r.assignments[actor], roleName)
	return nil
}

// ACL expands every assignment into grants: actors in sorted order, each
// actor's roles in assignment order, each role's grants in declared order,
// with the actor in place of the role. An expanded grant keeps its Reason,
// or gets `role "<name>"` when it has none.
func (r *RBAC) ACL() *ACL {
	actors := make([]string, 0, len(r.assignments))
	for actor := range r.assignments {
		actors = append(actors, actor)
	}
	sort.Strings(actors)
	a := &ACL{}
	for _, actor := range actors {
		for _, name := range r.assignments[actor] {
			for _, g := range r.roles[name].Grants {
				g.Actor = actor
				if g.Reason == "" {
					g.Reason = fmt.Sprintf("role %q", name)
				}
				// AddRole validated the grant; only the actor changed.
				_ = a.Add(g)
			}
		}
	}
	return a
}

// AccessChange describes one difference between two policies for a given
// scope of datastores, fields and actors.
type AccessChange struct {
	Actor     string
	Datastore string
	Field     string
	Perm      Permission
	// Before and After report whether the access was allowed under the old
	// and new policy respectively.
	Before bool
	After  bool
}

// String renders the change for reports, e.g.
// "administrator read ehr.diagnosis: allowed -> denied".
func (c AccessChange) String() string {
	return fmt.Sprintf("%s %s %s.%s: %s -> %s",
		c.Actor, c.Perm, c.Datastore, c.Field, allowWord(c.Before), allowWord(c.After))
}

func allowWord(b bool) string {
	if b {
		return "allowed"
	}
	return "denied"
}

// Scope enumerates the actors, datastores and fields over which two policies
// should be compared.
type Scope struct {
	Actors     []string
	Datastores map[string][]string // datastore -> field names
}

// Diff compares two policies over the given scope and returns the accesses
// whose outcome changed, sorted deterministically. It is used to explain the
// effect of a mitigation ("the access policies were changed accordingly and
// the risk level was reduced", Section IV-A).
func Diff(before, after Policy, scope Scope) []AccessChange {
	var changes []AccessChange
	stores := make([]string, 0, len(scope.Datastores))
	for ds := range scope.Datastores {
		stores = append(stores, ds)
	}
	sort.Strings(stores)
	actors := append([]string(nil), scope.Actors...)
	sort.Strings(actors)
	perms := []Permission{PermissionRead, PermissionWrite, PermissionDelete}
	for _, ds := range stores {
		fields := append([]string(nil), scope.Datastores[ds]...)
		sort.Strings(fields)
		for _, field := range fields {
			for _, actor := range actors {
				for _, perm := range perms {
					b := before.Allows(actor, ds, field, perm)
					a := after.Allows(actor, ds, field, perm)
					if b != a {
						changes = append(changes, AccessChange{
							Actor: actor, Datastore: ds, Field: field, Perm: perm,
							Before: b, After: a,
						})
					}
				}
			}
		}
	}
	return changes
}

func sortedSet(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
