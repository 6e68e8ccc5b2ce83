// Package schema defines the data vocabulary of a privacy-aware system: the
// personal-data fields handled by a service, the data schemas that group
// them, and the datastores that persist them.
//
// The paper (Section II-A) requires that every datastore in a data-flow model
// is described by "the data schema and access control policies associated
// with each datastore". This package provides the schema half of that
// description; package accesscontrol provides the policy half.
//
// Fields carry a Category describing their role in re-identification
// (direct identifier, quasi-identifier, sensitive value, or ordinary data)
// and datastores may be marked as anonymised, in which case they hold
// pseudonymised forms of fields (Section II-B, "Pseudonymisation").
package schema

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// AnonSuffix is appended to a field name to form the name of its
// pseudonymised counterpart, e.g. "weight" -> "weight_anon". The paper writes
// these as e.g. "weight_anon" / "f_anon".
const AnonSuffix = "_anon"

// Category classifies a field by its role in identification and disclosure
// risk. The categories follow the standard statistical-disclosure-control
// terminology used by the paper's pseudonymisation analysis (Section III-B).
type Category int

// Field categories. Identifier fields directly identify the data subject;
// quasi-identifier fields identify in combination (age, height, postcode);
// sensitive fields are the values the subject cares about protecting;
// standard fields are everything else.
const (
	CategoryStandard Category = iota + 1
	CategoryIdentifier
	CategoryQuasiIdentifier
	CategorySensitive
)

var categoryNames = map[Category]string{
	CategoryStandard:        "standard",
	CategoryIdentifier:      "identifier",
	CategoryQuasiIdentifier: "quasi-identifier",
	CategorySensitive:       "sensitive",
}

// String returns the lower-case name of the category.
func (c Category) String() string {
	if s, ok := categoryNames[c]; ok {
		return s
	}
	return fmt.Sprintf("category(%d)", int(c))
}

// Valid reports whether c is one of the defined categories.
func (c Category) Valid() bool {
	_, ok := categoryNames[c]
	return ok
}

// Field describes a single personal-data field.
type Field struct {
	// Name is the unique (per schema) field name, e.g. "diagnosis".
	Name string `json:"name"`
	// Category classifies the field's identification role.
	Category Category `json:"category"`
	// Description is free-text documentation shown in reports.
	Description string `json:"description,omitempty"`
	// Pseudonymised marks a field that is itself the pseudonymised form of
	// another field (its name normally ends in AnonSuffix).
	Pseudonymised bool `json:"pseudonymised,omitempty"`
}

// AnonName returns the conventional name of the pseudonymised form of the
// named field. If the name already carries the suffix it is returned
// unchanged.
func AnonName(field string) string {
	if IsAnonName(field) {
		return field
	}
	return field + AnonSuffix
}

// IsAnonName reports whether the field name denotes a pseudonymised field.
func IsAnonName(field string) bool { return strings.HasSuffix(field, AnonSuffix) }

// BaseName strips the pseudonymisation suffix from a field name, returning
// the name of the original field. Non-pseudonymised names are returned
// unchanged.
func BaseName(field string) string { return strings.TrimSuffix(field, AnonSuffix) }

// Schema is a named collection of fields, typically describing the record
// layout of one datastore.
type Schema struct {
	// Name identifies the schema, e.g. "ehr".
	Name string `json:"name"`
	// Fields are the fields of the schema, in declaration order.
	Fields []Field `json:"fields"`
}

// NewSchema constructs a schema and validates it.
func NewSchema(name string, fields ...Field) (Schema, error) {
	s := Schema{Name: name, Fields: append([]Field(nil), fields...)}
	if err := s.Validate(); err != nil {
		return Schema{}, err
	}
	return s, nil
}

// MustSchema is like NewSchema but panics on error. It is intended for
// statically-known schemas in tests and case-study fixtures.
func MustSchema(name string, fields ...Field) Schema {
	s, err := NewSchema(name, fields...)
	if err != nil {
		panic(err)
	}
	return s
}

// Validate checks the schema for an empty name, unnamed fields, duplicate
// field names, and invalid categories.
func (s Schema) Validate() error {
	if strings.TrimSpace(s.Name) == "" {
		return errors.New("schema: schema name must not be empty")
	}
	seen := make(map[string]bool, len(s.Fields))
	for i, f := range s.Fields {
		if strings.TrimSpace(f.Name) == "" {
			return fmt.Errorf("schema %q: field %d has an empty name", s.Name, i)
		}
		if seen[f.Name] {
			return fmt.Errorf("schema %q: duplicate field %q", s.Name, f.Name)
		}
		seen[f.Name] = true
		if !f.Category.Valid() {
			return fmt.Errorf("schema %q: field %q has invalid category %d", s.Name, f.Name, int(f.Category))
		}
	}
	return nil
}

// Field returns the field with the given name.
func (s Schema) Field(name string) (Field, bool) {
	for _, f := range s.Fields {
		if f.Name == name {
			return f, true
		}
	}
	return Field{}, false
}

// Contains reports whether the schema declares the named field.
func (s Schema) Contains(name string) bool {
	_, ok := s.Field(name)
	return ok
}

// FieldNames returns the field names in declaration order.
func (s Schema) FieldNames() []string {
	names := make([]string, len(s.Fields))
	for i, f := range s.Fields {
		names[i] = f.Name
	}
	return names
}

// Datastore describes a persistent store of personal data: an identifier, the
// schema of its records, and whether it holds pseudonymised data.
type Datastore struct {
	// ID identifies the datastore in data-flow models, e.g. "ehr".
	ID string `json:"id"`
	// Name is the human-readable name, e.g. "Electronic Health Records".
	Name string `json:"name"`
	// Schema describes the fields stored.
	Schema Schema `json:"schema"`
	// Anonymised marks a store that holds only pseudonymised data; flows
	// into such a store are modelled as "anon" actions (Section II-B).
	Anonymised bool `json:"anonymised,omitempty"`
}

// Validate checks the datastore identifier and its schema.
func (d Datastore) Validate() error {
	if strings.TrimSpace(d.ID) == "" {
		return errors.New("schema: datastore ID must not be empty")
	}
	if err := d.Schema.Validate(); err != nil {
		return fmt.Errorf("datastore %q: %w", d.ID, err)
	}
	return nil
}

// FieldSet is an immutable-by-convention set of field names with set algebra
// helpers. The zero value is an empty set.
type FieldSet struct {
	members map[string]bool
}

// NewFieldSet builds a set from the given names.
func NewFieldSet(names ...string) FieldSet {
	fs := FieldSet{members: make(map[string]bool, len(names))}
	for _, n := range names {
		fs.members[n] = true
	}
	return fs
}

// Contains reports whether the set holds the field name.
func (fs FieldSet) Contains(name string) bool { return fs.members[name] }

// Len returns the number of members.
func (fs FieldSet) Len() int { return len(fs.members) }

// IsEmpty reports whether the set has no members.
func (fs FieldSet) IsEmpty() bool { return len(fs.members) == 0 }

// Names returns the members in sorted order.
func (fs FieldSet) Names() []string {
	out := make([]string, 0, len(fs.members))
	for n := range fs.members {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ContainsAll reports whether every member of other is in fs.
func (fs FieldSet) ContainsAll(other FieldSet) bool {
	for n := range other.members {
		if !fs.members[n] {
			return false
		}
	}
	return true
}

// String renders the set as a comma-separated sorted list, for labels.
func (fs FieldSet) String() string { return strings.Join(fs.Names(), ", ") }
