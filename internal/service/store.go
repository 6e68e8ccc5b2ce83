package service

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"privascope/internal/accesscontrol"
	"privascope/internal/core"
	"privascope/internal/schema"
)

// ErrDenied is returned when the access-control policy refuses an operation.
var ErrDenied = errors.New("service: access denied")

// ErrUnknownField is returned when an operation references a field the
// datastore's schema does not declare.
var ErrUnknownField = errors.New("service: field not in datastore schema")

// Datastore is an in-memory, field-level store of personal data for one
// datastore of the model, enforcing the access-control policy on every
// operation and emitting an event for each one. It is safe for concurrent
// use.
type Datastore struct {
	def    schema.Datastore
	policy accesscontrol.Policy
	log    *Log

	mu      sync.RWMutex
	records map[string]map[string]string // user -> field -> value
}

// NewDatastore creates a datastore service for the given definition, policy
// and event log. A nil log disables event emission.
func NewDatastore(def schema.Datastore, policy accesscontrol.Policy, log *Log) (*Datastore, error) {
	if err := def.Validate(); err != nil {
		return nil, err
	}
	if policy == nil {
		return nil, errors.New("service: datastore requires an access-control policy")
	}
	return &Datastore{
		def:     def,
		policy:  policy,
		log:     log,
		records: make(map[string]map[string]string),
	}, nil
}

// emit appends an event if a log is attached.
func (d *Datastore) emit(ev Event) {
	if d.log != nil {
		d.log.Append(ev)
	}
}

func (d *Datastore) checkFields(fields []string) error {
	for _, f := range fields {
		if !d.def.Schema.Contains(f) {
			return fmt.Errorf("%w: %q in datastore %q", ErrUnknownField, f, d.def.ID)
		}
	}
	return nil
}

func (d *Datastore) checkAccess(actor string, fields []string, perm accesscontrol.Permission) error {
	for _, f := range fields {
		if !d.policy.Allows(actor, d.def.ID, f, perm) {
			return fmt.Errorf("%w: %s may not %s %s.%s", ErrDenied, actor, perm, d.def.ID, f)
		}
	}
	return nil
}

// Put writes field values for a user. The actor needs write permission on
// every field. The action recorded is "create" ("anon" for anonymised
// stores).
func (d *Datastore) Put(actor, userID, purpose string, values map[string]string) error {
	fields := sortedKeys(values)
	if err := d.checkFields(fields); err != nil {
		return err
	}
	action := core.ActionCreate
	if d.def.Anonymised {
		action = core.ActionAnon
	}
	if err := d.checkAccess(actor, fields, accesscontrol.PermissionWrite); err != nil {
		d.emit(Event{Actor: actor, Action: action, Datastore: d.def.ID, UserID: userID,
			Fields: fields, Purpose: purpose, Denied: true})
		return err
	}
	d.mu.Lock()
	if d.records[userID] == nil {
		d.records[userID] = make(map[string]string, len(values))
	}
	for f, v := range values {
		d.records[userID][f] = v
	}
	d.mu.Unlock()
	d.emit(Event{Actor: actor, Action: action, Datastore: d.def.ID, UserID: userID,
		Fields: fields, Purpose: purpose})
	return nil
}

// Get reads the requested fields of a user's record. The actor needs read
// permission on every requested field; the datastore supports field-level
// queries as the paper assumes.
func (d *Datastore) Get(actor, userID, purpose string, fields []string) (map[string]string, error) {
	fields = append([]string(nil), fields...)
	sort.Strings(fields)
	if err := d.checkFields(fields); err != nil {
		return nil, err
	}
	if err := d.checkAccess(actor, fields, accesscontrol.PermissionRead); err != nil {
		d.emit(Event{Actor: actor, Action: core.ActionRead, Datastore: d.def.ID, UserID: userID,
			Fields: fields, Purpose: purpose, Denied: true})
		return nil, err
	}
	d.mu.RLock()
	record := d.records[userID]
	out := make(map[string]string, len(fields))
	for _, f := range fields {
		if v, ok := record[f]; ok {
			out[f] = v
		}
	}
	d.mu.RUnlock()
	d.emit(Event{Actor: actor, Action: core.ActionRead, Datastore: d.def.ID, UserID: userID,
		Fields: fields, Purpose: purpose})
	return out, nil
}

// Delete removes the given fields from a user's record (all fields when the
// list is empty). The actor needs delete permission.
func (d *Datastore) Delete(actor, userID, purpose string, fields []string) error {
	if len(fields) == 0 {
		fields = d.def.Schema.FieldNames()
	}
	fields = append([]string(nil), fields...)
	sort.Strings(fields)
	if err := d.checkFields(fields); err != nil {
		return err
	}
	if err := d.checkAccess(actor, fields, accesscontrol.PermissionDelete); err != nil {
		d.emit(Event{Actor: actor, Action: core.ActionDelete, Datastore: d.def.ID, UserID: userID,
			Fields: fields, Purpose: purpose, Denied: true})
		return err
	}
	d.mu.Lock()
	if record, ok := d.records[userID]; ok {
		for _, f := range fields {
			delete(record, f)
		}
		if len(record) == 0 {
			delete(d.records, userID)
		}
	}
	d.mu.Unlock()
	d.emit(Event{Actor: actor, Action: core.ActionDelete, Datastore: d.def.ID, UserID: userID,
		Fields: fields, Purpose: purpose})
	return nil
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
