package dataflow

import "privascope/internal/schema"

// FieldSensitivity returns the schema category of the named field by looking
// it up across datastores (first match wins). Fields only present in flows
// default to CategoryStandard.
func (m *Model) FieldSensitivity(field string) schema.Category {
	for _, d := range m.Datastores {
		if f, ok := d.Schema.Field(field); ok {
			return f.Category
		}
	}
	return schema.CategoryStandard
}

// Stats summarises the size of a model.
type Stats struct {
	Actors     int
	Datastores int
	Services   int
	Flows      int
	Fields     int
	// StateVariables is 2 * Actors * Fields, the number of Boolean state
	// variables each privacy state carries (Section II-B).
	StateVariables int
}

// Stats computes the model's size statistics.
func (m *Model) Stats() Stats {
	fields := len(m.FieldUniverse())
	return Stats{
		Actors:         len(m.Actors),
		Datastores:     len(m.Datastores),
		Services:       len(m.Services),
		Flows:          len(m.Flows),
		Fields:         fields,
		StateVariables: 2 * len(m.Actors) * fields,
	}
}
