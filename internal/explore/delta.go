package explore

import (
	"fmt"
	"reflect"
	"sort"

	"privascope/internal/accesscontrol"
	"privascope/internal/dataflow"
	"privascope/internal/schema"
)

// DeltaKind classifies the difference between two data-flow models from the
// viewpoint of incremental regeneration.
type DeltaKind int

const (
	// DeltaIdentical: the models are indistinguishable (including policy).
	DeltaIdentical DeltaKind = iota + 1
	// DeltaMetadata: only fields that cannot change the explored state space
	// differ — names, descriptions, purposes, schema categories.
	DeltaMetadata
	// DeltaPolicy: the structure is identical but access-control answers
	// changed; AffectedReaders lists the (datastore, actor) pairs whose read
	// access differs. Exploration can be replayed, recomputing only the
	// potential reads of affected readers.
	DeltaPolicy
	// DeltaUnsafe: the structure itself changed (actors, stores, schema
	// fields, services, flows, or a non-enumerable policy type), so no reuse
	// of a previous exploration can be proven safe; regenerate from scratch.
	DeltaUnsafe
)

// String names the kind.
func (k DeltaKind) String() string {
	switch k {
	case DeltaIdentical:
		return "identical"
	case DeltaMetadata:
		return "metadata"
	case DeltaPolicy:
		return "policy"
	case DeltaUnsafe:
		return "unsafe"
	default:
		return fmt.Sprintf("deltakind(%d)", int(k))
	}
}

// ReaderKey names one (datastore, actor) potential-read relationship.
type ReaderKey struct {
	Datastore, Actor string
}

// Delta is the result of diffing two models.
type Delta struct {
	Kind DeltaKind
	// Changes lists every access-control answer that differs, over Scope.
	Changes []accesscontrol.AccessChange
	// AffectedReaders lists the distinct (datastore, actor) pairs with a
	// changed read permission — the potential-read tables that must be
	// recomputed during replay.
	AffectedReaders []ReaderKey
	// Reasons explains DeltaUnsafe classifications.
	Reasons []string
	// Scope is the (actors × datastores × fields) universe the policies were
	// compared over; empty for unsafe deltas.
	Scope accesscontrol.Scope
}

// Diff classifies the difference between two models. The structural parts —
// user, actor set, datastores and their schema field names, services, and
// every flow's shape — must match exactly for any reuse to be safe; on top
// of an identical structure the access-control policies are compared over
// the full (actor × datastore × field × permission) scope, including actors
// that only the policies know about and the pseudonymised field forms the
// exploration encoding tracks.
func Diff(before, after *dataflow.Model) *Delta {
	d := &Delta{}
	unsafe := func(format string, args ...any) {
		d.Reasons = append(d.Reasons, fmt.Sprintf(format, args...))
	}
	if before == nil || after == nil {
		d.Kind = DeltaUnsafe
		unsafe("nil model")
		return d
	}
	if before.User.ID != after.User.ID {
		unsafe("data subject changed: %q -> %q", before.User.ID, after.User.ID)
	}
	if !stringsEqual(before.ActorIDs(), after.ActorIDs()) {
		unsafe("actor set changed")
	}
	if !stringsEqual(before.DatastoreIDs(), after.DatastoreIDs()) {
		unsafe("datastore set changed")
	} else {
		for _, id := range after.DatastoreIDs() {
			db, _ := before.Datastore(id)
			da, _ := after.Datastore(id)
			if db.Anonymised != da.Anonymised {
				unsafe("datastore %q anonymisation changed", id)
			}
			if !stringsEqual(sortedFieldNames(db.Schema), sortedFieldNames(da.Schema)) {
				unsafe("datastore %q schema fields changed", id)
			}
		}
	}
	if !stringsEqual(before.ServiceIDs(), after.ServiceIDs()) {
		unsafe("service set changed")
	} else {
		for _, svcID := range after.ServiceIDs() {
			fb, fa := before.ServiceFlows(svcID), after.ServiceFlows(svcID)
			if len(fb) != len(fa) {
				unsafe("service %q flow count changed", svcID)
				continue
			}
			for i := range fa {
				if fb[i].Order != fa[i].Order || fb[i].From != fa[i].From || fb[i].To != fa[i].To ||
					fb[i].Delete != fa[i].Delete ||
					!stringsEqual(fb[i].Fields, fa[i].Fields) || !stringsEqual(fb[i].Authored, fa[i].Authored) {
					unsafe("service %q flow %d changed shape", svcID, fa[i].Order)
				}
			}
		}
	}
	if len(d.Reasons) > 0 {
		d.Kind = DeltaUnsafe
		return d
	}

	// Policy comparison over the full scope: model actors plus every actor
	// either policy names, every store crossed with the exploration's field
	// universe (model fields and their pseudonymised forms).
	actorSet := make(map[string]bool)
	for _, a := range after.ActorIDs() {
		actorSet[a] = true
	}
	beforeACL, afterACL := accesscontrol.ACLOf(before.Policy), accesscontrol.ACLOf(after.Policy)
	for _, a := range append(beforeACL.Actors(), afterACL.Actors()...) {
		actorSet[a] = true
	}
	fieldSet := make(map[string]bool)
	for _, f := range after.FieldUniverse() {
		fieldSet[f] = true
		fieldSet[schema.AnonName(f)] = true
	}
	fields := make([]string, 0, len(fieldSet))
	for f := range fieldSet {
		fields = append(fields, f)
	}
	sort.Strings(fields)
	actors := make([]string, 0, len(actorSet))
	for a := range actorSet {
		actors = append(actors, a)
	}
	sort.Strings(actors)
	scope := accesscontrol.Scope{Actors: actors, Datastores: make(map[string][]string)}
	for _, id := range after.DatastoreIDs() {
		scope.Datastores[id] = fields
	}
	d.Scope = scope
	d.Changes = accesscontrol.Diff(beforeACL, afterACL, scope)

	seen := make(map[ReaderKey]bool)
	for _, c := range d.Changes {
		if c.Perm != accesscontrol.PermissionRead {
			continue
		}
		k := ReaderKey{Datastore: c.Datastore, Actor: c.Actor}
		if !seen[k] {
			seen[k] = true
			d.AffectedReaders = append(d.AffectedReaders, k)
		}
	}
	sort.Slice(d.AffectedReaders, func(i, j int) bool {
		a, b := d.AffectedReaders[i], d.AffectedReaders[j]
		if a.Datastore != b.Datastore {
			return a.Datastore < b.Datastore
		}
		return a.Actor < b.Actor
	})

	switch {
	case len(d.Changes) > 0:
		d.Kind = DeltaPolicy
	case metadataEqual(before, after):
		d.Kind = DeltaIdentical
	default:
		d.Kind = DeltaMetadata
	}
	return d
}

// metadataEqual reports whether the models are deeply equal outside the
// policy (which the caller has already compared semantically).
func metadataEqual(a, b *dataflow.Model) bool {
	ac, bc := *a, *b
	ac.Policy, bc.Policy = nil, nil
	return reflect.DeepEqual(ac, bc)
}

func stringsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sortedFieldNames(s schema.Schema) []string {
	names := make([]string, 0, len(s.Fields))
	for _, f := range s.Fields {
		names = append(names, f.Name)
	}
	sort.Strings(names)
	return names
}
