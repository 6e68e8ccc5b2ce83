package schema

import (
	"fmt"
	"strings"
)

// ParseCategory converts a category name (as produced by String) back to a
// Category value.
func ParseCategory(s string) (Category, error) {
	for c, name := range categoryNames {
		if name == strings.ToLower(strings.TrimSpace(s)) {
			return c, nil
		}
	}
	return 0, fmt.Errorf("schema: unknown field category %q", s)
}

// FieldsByCategory returns the names of fields with the given category, in
// declaration order.
func (s Schema) FieldsByCategory(c Category) []string {
	var names []string
	for _, f := range s.Fields {
		if f.Category == c {
			names = append(names, f.Name)
		}
	}
	return names
}

// Anonymised returns a schema holding the pseudonymised counterparts of every
// field in s. Fields that are already pseudonymised are carried over
// unchanged. The resulting schema name carries the AnonSuffix.
func (s Schema) Anonymised() Schema {
	out := Schema{Name: AnonName(s.Name)}
	out.Fields = make([]Field, 0, len(s.Fields))
	for _, f := range s.Fields {
		if f.Pseudonymised {
			out.Fields = append(out.Fields, f)
			continue
		}
		out.Fields = append(out.Fields, f.AnonField())
	}
	return out
}

// Union returns a new set containing members of both sets.
func (fs FieldSet) Union(other FieldSet) FieldSet {
	out := NewFieldSet(fs.Names()...)
	for n := range other.members {
		out.members[n] = true
	}
	return out
}

// Intersect returns a new set containing members present in both sets.
func (fs FieldSet) Intersect(other FieldSet) FieldSet {
	out := NewFieldSet()
	for n := range fs.members {
		if other.members[n] {
			out.members[n] = true
		}
	}
	return out
}

// Minus returns a new set with other's members removed.
func (fs FieldSet) Minus(other FieldSet) FieldSet {
	out := NewFieldSet()
	for n := range fs.members {
		if !other.members[n] {
			out.members[n] = true
		}
	}
	return out
}

// Equal reports whether both sets have exactly the same members.
func (fs FieldSet) Equal(other FieldSet) bool {
	return fs.Len() == other.Len() && fs.ContainsAll(other)
}

// AnonField returns the pseudonymised counterpart of f: same category,
// Pseudonymised set, and the AnonSuffix appended to the name.
func (f Field) AnonField() Field {
	return Field{
		Name:          AnonName(f.Name),
		Category:      f.Category,
		Description:   "pseudonymised form of " + f.Name,
		Pseudonymised: true,
	}
}
