// Package dataflow implements the paper's data-flow modelling framework
// (Section II-A): developers "specify their system in terms of a
// purpose-driven data-flow diagram and a set of access policies".
//
// A Model contains:
//
//   - the data subject (the "user" whose privacy is being modelled),
//   - the actors (individuals or role types that can identify the user's
//     personal data),
//   - the datastores (with schemas, from package schema),
//   - one or more services, each an ordered list of flows,
//   - the access-control policy (from package accesscontrol).
//
// Each flow is a directed edge between two nodes labelled with the set of
// data fields that flow, the purpose of the flow, and a numeric order —
// exactly the three labels the paper places on flow arrows. The model is the
// single input to the privacy-LTS generator in package core.
package dataflow

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"privascope/internal/accesscontrol"
	"privascope/internal/schema"
)

// NodeKind distinguishes the three node types of a data-flow diagram.
type NodeKind int

// Node kinds. The user (data subject) is drawn as an oval like other actors
// in the paper's diagrams but plays a distinguished role in the extraction
// rules (flows leaving the user are "collect" actions).
const (
	NodeUser NodeKind = iota + 1
	NodeActor
	NodeDatastore
)

var nodeKindNames = map[NodeKind]string{
	NodeUser:      "user",
	NodeActor:     "actor",
	NodeDatastore: "datastore",
}

// String returns the lower-case name of the node kind.
func (k NodeKind) String() string {
	if s, ok := nodeKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("nodekind(%d)", int(k))
}

// Actor is an individual or role type that handles personal data.
type Actor struct {
	// ID identifies the actor in flows and access-control grants.
	ID string `json:"id"`
	// Name is the human-readable name, e.g. "Receptionist".
	Name string `json:"name"`
	// Description documents the actor's function.
	Description string `json:"description,omitempty"`
}

// Flow is one directed data-flow arrow between two nodes of the diagram.
type Flow struct {
	// Service is the identifier of the service this flow belongs to.
	Service string `json:"service"`
	// Order is the numeric execution order of the flow within its service
	// (the third label on the paper's flow arrows).
	Order int `json:"order"`
	// From and To are node identifiers: the user ID, an actor ID, or a
	// datastore ID.
	From string `json:"from"`
	To   string `json:"to"`
	// Fields is the set of data fields that flow along the arrow.
	Fields []string `json:"fields"`
	// Purpose explains why the data flows (the second label on the arrow).
	Purpose string `json:"purpose"`
	// Authored lists the subset of Fields that the source actor creates
	// during this flow rather than having previously obtained (for example a
	// doctor authoring a diagnosis). Authored fields are exempt from the
	// "start node has the correct data to flow" gating rule.
	Authored []string `json:"authored,omitempty"`
	// Delete marks a flow from an actor to a datastore as a deletion: the
	// fields are removed from the store instead of being written to it
	// (the paper's "delete" action).
	Delete bool `json:"delete,omitempty"`
}

// FieldSet returns the flow's fields as a schema.FieldSet.
func (f Flow) FieldSet() schema.FieldSet { return schema.NewFieldSet(f.Fields...) }

// AuthoredSet returns the flow's authored fields as a schema.FieldSet.
func (f Flow) AuthoredSet() schema.FieldSet { return schema.NewFieldSet(f.Authored...) }

// Key returns a stable identifier for the flow used in traces and reports.
func (f Flow) Key() string {
	return fmt.Sprintf("%s/%d:%s->%s", f.Service, f.Order, f.From, f.To)
}

// Service is a named business process composed of ordered flows. Users give
// (or withhold) consent per service; consent is the basis of the
// allowed/non-allowed actor split in the risk analysis (Section III-A).
type Service struct {
	// ID identifies the service, e.g. "medical-service".
	ID string `json:"id"`
	// Name is the human-readable name, e.g. "Medical Service".
	Name string `json:"name"`
	// Purpose documents the overall purpose of the service.
	Purpose string `json:"purpose,omitempty"`
}

// Model is a complete data-flow model of a privacy-aware system.
type Model struct {
	// Name identifies the system being modelled.
	Name string `json:"name"`
	// User is the data subject whose privacy the model tracks.
	User Actor `json:"user"`
	// Actors are the individuals/roles that handle the user's data.
	Actors []Actor `json:"actors"`
	// Datastores are the stores holding personal data.
	Datastores []schema.Datastore `json:"datastores"`
	// Services are the business processes of the system.
	Services []Service `json:"services"`
	// Flows are every data-flow arrow across all services.
	Flows []Flow `json:"flows"`

	// Policy is the access-control policy of the system's datastores. It is
	// not serialised with the model; attach it programmatically or load it
	// separately (see policyJSON in codec.go for the ACL form).
	Policy accesscontrol.Policy `json:"-"`
}

// Actor returns the actor with the given ID.
func (m *Model) Actor(id string) (Actor, bool) {
	if m.User.ID == id {
		return m.User, true
	}
	for _, a := range m.Actors {
		if a.ID == id {
			return a, true
		}
	}
	return Actor{}, false
}

// Datastore returns the datastore with the given ID.
func (m *Model) Datastore(id string) (schema.Datastore, bool) {
	for _, d := range m.Datastores {
		if d.ID == id {
			return d, true
		}
	}
	return schema.Datastore{}, false
}

// Service returns the service with the given ID.
func (m *Model) Service(id string) (Service, bool) {
	for _, s := range m.Services {
		if s.ID == id {
			return s, true
		}
	}
	return Service{}, false
}

// NodeKindOf classifies a node identifier as user, actor, or datastore.
func (m *Model) NodeKindOf(id string) (NodeKind, bool) {
	if id == m.User.ID {
		return NodeUser, true
	}
	for _, a := range m.Actors {
		if a.ID == id {
			return NodeActor, true
		}
	}
	for _, d := range m.Datastores {
		if d.ID == id {
			return NodeDatastore, true
		}
	}
	return 0, false
}

// ActorIDs returns the IDs of all actors (excluding the user), sorted.
func (m *Model) ActorIDs() []string {
	out := make([]string, 0, len(m.Actors))
	for _, a := range m.Actors {
		out = append(out, a.ID)
	}
	sort.Strings(out)
	return out
}

// DatastoreIDs returns the IDs of all datastores, sorted.
func (m *Model) DatastoreIDs() []string {
	out := make([]string, 0, len(m.Datastores))
	for _, d := range m.Datastores {
		out = append(out, d.ID)
	}
	sort.Strings(out)
	return out
}

// ServiceIDs returns the IDs of all services, sorted.
func (m *Model) ServiceIDs() []string {
	out := make([]string, 0, len(m.Services))
	for _, s := range m.Services {
		out = append(out, s.ID)
	}
	sort.Strings(out)
	return out
}

// FieldUniverse returns the sorted union of every field name appearing in a
// flow or a datastore schema. This is the field dimension of the privacy
// state space.
func (m *Model) FieldUniverse() []string {
	set := make(map[string]bool)
	for _, d := range m.Datastores {
		for _, f := range d.Schema.Fields {
			set[f.Name] = true
		}
	}
	for _, fl := range m.Flows {
		for _, f := range fl.Fields {
			set[f] = true
		}
	}
	out := make([]string, 0, len(set))
	for f := range set {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// ServiceFlows returns the flows of the given service sorted by Order.
func (m *Model) ServiceFlows(serviceID string) []Flow {
	var out []Flow
	for _, f := range m.Flows {
		if f.Service == serviceID {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Order < out[j].Order })
	return out
}

// ServiceActors returns the sorted IDs of the actors that participate in the
// given services' flows (as source or target, excluding the user and
// datastores). These are the "allowed actors" when a user consents to those
// services (Section III-A).
func (m *Model) ServiceActors(serviceIDs ...string) []string {
	wanted := make(map[string]bool, len(serviceIDs))
	for _, id := range serviceIDs {
		wanted[id] = true
	}
	set := make(map[string]bool)
	for _, f := range m.Flows {
		if !wanted[f.Service] {
			continue
		}
		for _, node := range []string{f.From, f.To} {
			if kind, ok := m.NodeKindOf(node); ok && kind == NodeActor {
				set[node] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Validate checks the structural consistency of the model:
//
//   - unique, non-empty identifiers for user, actors, datastores, services;
//   - every flow references an existing service and existing endpoints;
//   - flows never connect two datastores directly (the paper's diagrams flow
//     through actors);
//   - flow fields written to or read from a datastore exist in its schema
//     (pseudonymised stores accept the anonymised form of a field);
//   - flow orders are unique within a service;
//   - authored fields are a subset of the flow's fields and only appear on
//     flows whose source is an actor.
func (m *Model) Validate() error {
	if strings.TrimSpace(m.Name) == "" {
		return errors.New("dataflow: model name must not be empty")
	}
	if strings.TrimSpace(m.User.ID) == "" {
		return errors.New("dataflow: model must declare a user (data subject)")
	}
	ids := map[string]string{m.User.ID: "user"}
	for _, a := range m.Actors {
		if strings.TrimSpace(a.ID) == "" {
			return errors.New("dataflow: actor with empty ID")
		}
		if prev, dup := ids[a.ID]; dup {
			return fmt.Errorf("dataflow: identifier %q used by both %s and actor", a.ID, prev)
		}
		ids[a.ID] = "actor"
	}
	for _, d := range m.Datastores {
		if err := d.Validate(); err != nil {
			return fmt.Errorf("dataflow: %w", err)
		}
		if prev, dup := ids[d.ID]; dup {
			return fmt.Errorf("dataflow: identifier %q used by both %s and datastore", d.ID, prev)
		}
		ids[d.ID] = "datastore"
	}
	serviceIDs := make(map[string]bool, len(m.Services))
	for _, s := range m.Services {
		if strings.TrimSpace(s.ID) == "" {
			return errors.New("dataflow: service with empty ID")
		}
		if serviceIDs[s.ID] {
			return fmt.Errorf("dataflow: duplicate service %q", s.ID)
		}
		serviceIDs[s.ID] = true
	}

	ordersSeen := make(map[string]map[int]bool)
	for i, f := range m.Flows {
		if !serviceIDs[f.Service] {
			return fmt.Errorf("dataflow: flow %d references unknown service %q", i, f.Service)
		}
		fromKind, ok := m.NodeKindOf(f.From)
		if !ok {
			return fmt.Errorf("dataflow: flow %s references unknown source node %q", f.Key(), f.From)
		}
		toKind, ok := m.NodeKindOf(f.To)
		if !ok {
			return fmt.Errorf("dataflow: flow %s references unknown target node %q", f.Key(), f.To)
		}
		if fromKind == NodeDatastore && toKind == NodeDatastore {
			return fmt.Errorf("dataflow: flow %s connects two datastores; data must flow through an actor", f.Key())
		}
		if toKind == NodeUser {
			return fmt.Errorf("dataflow: flow %s targets the data subject; model disclosures to the user as actor reads", f.Key())
		}
		if len(f.Fields) == 0 {
			return fmt.Errorf("dataflow: flow %s carries no fields", f.Key())
		}
		if err := m.validateStoreFields(f, fromKind, toKind); err != nil {
			return err
		}
		authored := f.AuthoredSet()
		if !f.FieldSet().ContainsAll(authored) {
			return fmt.Errorf("dataflow: flow %s authors fields it does not carry", f.Key())
		}
		if !authored.IsEmpty() && fromKind == NodeDatastore {
			return fmt.Errorf("dataflow: flow %s cannot author fields from a datastore", f.Key())
		}
		if f.Delete && toKind != NodeDatastore {
			return fmt.Errorf("dataflow: delete flow %s must target a datastore", f.Key())
		}
		if f.Delete && !authored.IsEmpty() {
			return fmt.Errorf("dataflow: delete flow %s cannot author fields", f.Key())
		}
		if ordersSeen[f.Service] == nil {
			ordersSeen[f.Service] = make(map[int]bool)
		}
		if ordersSeen[f.Service][f.Order] {
			return fmt.Errorf("dataflow: service %q has two flows with order %d", f.Service, f.Order)
		}
		ordersSeen[f.Service][f.Order] = true
	}
	return nil
}

// validateStoreFields checks that fields flowing into or out of a datastore
// are declared by its schema. Writing a plain field into an anonymised store
// is allowed when the store's schema declares the field's anonymised form:
// the write is the paper's "anon" action and stores the pseudonymised value.
func (m *Model) validateStoreFields(f Flow, fromKind, toKind NodeKind) error {
	check := func(storeID string, incoming bool) error {
		d, ok := m.Datastore(storeID)
		if !ok {
			return fmt.Errorf("dataflow: flow %s references unknown datastore %q", f.Key(), storeID)
		}
		for _, field := range f.Fields {
			if d.Schema.Contains(field) {
				continue
			}
			if incoming && d.Anonymised && d.Schema.Contains(schema.AnonName(field)) {
				continue
			}
			return fmt.Errorf("dataflow: flow %s uses field %q not in schema of datastore %q",
				f.Key(), field, storeID)
		}
		return nil
	}
	if toKind == NodeDatastore {
		if err := check(f.To, true); err != nil {
			return err
		}
	}
	if fromKind == NodeDatastore {
		if err := check(f.From, false); err != nil {
			return err
		}
	}
	return nil
}
