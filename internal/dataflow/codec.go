package dataflow

import (
	"encoding/json"
	"fmt"
	"os"

	"privascope/internal/accesscontrol"
)

// document is the on-disk JSON form of a model together with its policy's
// grants. An RBAC-written policy is an ACL by the time it is attached, so it
// is written like any other.
type document struct {
	Model
	ACL []grantJSON `json:"acl,omitempty"`
}

// grantJSON is the JSON form of an access-control grant; permissions are
// written as their lower-case names for readability.
type grantJSON struct {
	Actor       string   `json:"actor"`
	Datastore   string   `json:"datastore"`
	Fields      []string `json:"fields"`
	Permissions []string `json:"permissions"`
	Reason      string   `json:"reason,omitempty"`
}

// Marshal serialises the model and the grants of its policy to indented
// JSON.
func Marshal(m *Model) ([]byte, error) {
	if m == nil {
		return nil, fmt.Errorf("dataflow: cannot marshal nil model")
	}
	doc := document{Model: *m}
	for _, g := range accesscontrol.ACLOf(m.Policy).Grants() {
		perms := make([]string, len(g.Permissions))
		for i, p := range g.Permissions {
			perms[i] = p.String()
		}
		doc.ACL = append(doc.ACL, grantJSON{
			Actor:       g.Actor,
			Datastore:   g.Datastore,
			Fields:      g.Fields,
			Permissions: perms,
			Reason:      g.Reason,
		})
	}
	return json.MarshalIndent(doc, "", "  ")
}

// Unmarshal parses a model document produced by Marshal and validates it.
// If the document carries an ACL section, the resulting model's Policy is an
// *accesscontrol.ACL built from it.
func Unmarshal(data []byte) (*Model, error) {
	var doc document
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("dataflow: parsing model document: %w", err)
	}
	m := doc.Model
	if len(doc.ACL) > 0 {
		acl := &accesscontrol.ACL{}
		for i, gj := range doc.ACL {
			perms := make([]accesscontrol.Permission, 0, len(gj.Permissions))
			for _, ps := range gj.Permissions {
				p, err := accesscontrol.ParsePermission(ps)
				if err != nil {
					return nil, fmt.Errorf("dataflow: acl entry %d: %w", i, err)
				}
				perms = append(perms, p)
			}
			if err := acl.Add(accesscontrol.Grant{
				Actor:       gj.Actor,
				Datastore:   gj.Datastore,
				Fields:      gj.Fields,
				Permissions: perms,
				Reason:      gj.Reason,
			}); err != nil {
				return nil, fmt.Errorf("dataflow: acl entry %d: %w", i, err)
			}
		}
		m.Policy = acl
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// Save writes the model document to a file.
func Save(m *Model, path string) error {
	data, err := Marshal(m)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("dataflow: writing model to %s: %w", path, err)
	}
	return nil
}

// Load reads and validates a model document from a file.
func Load(path string) (*Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("dataflow: reading model from %s: %w", path, err)
	}
	return Unmarshal(data)
}
