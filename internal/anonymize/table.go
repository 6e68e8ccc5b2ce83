package anonymize

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
)

// ColumnRole describes how a column participates in re-identification, using
// the same terminology as package schema.
type ColumnRole int

// Column roles.
const (
	RoleStandard ColumnRole = iota + 1
	RoleIdentifier
	RoleQuasiIdentifier
	RoleSensitive
)

// String returns the lower-case role name.
func (r ColumnRole) String() string {
	switch r {
	case RoleStandard:
		return "standard"
	case RoleIdentifier:
		return "identifier"
	case RoleQuasiIdentifier:
		return "quasi-identifier"
	case RoleSensitive:
		return "sensitive"
	default:
		return fmt.Sprintf("role(%d)", int(r))
	}
}

// Column describes one column of a record table.
type Column struct {
	// Name is the unique column name, e.g. "weight".
	Name string
	// Role classifies the column.
	Role ColumnRole
	// Unit is a display-only unit, e.g. "kg".
	Unit string
}

// Table is an in-memory record table: the datasets the pseudonymisation risk
// analysis operates on.
//
// Storage is column-oriented and dictionary-encoded: a column is the distinct
// cells it has held, each stored once, plus one int32 code per row, so the
// analyses group, count and generalise on small integers and touch a Value
// once per distinct cell instead of once per row. A cell reads back normalised:
// a NaN's payload and the fields its kind does not use are cleared on the way
// in. Tables are not safe for concurrent mutation; concurrent reads are safe
// once mutation has stopped.
type Table struct {
	columns []Column
	index   map[string]int
	cols    []column
	nrows   int
}

// column is one dictionary-encoded column: codes[r] indexes dict.
type column struct {
	// dict holds normalised cells in order of first appearance. Entries are
	// never rewritten, so clones share them; one whose rows were all
	// overwritten by SetValue stays behind with no row. Entries are unique by
	// what their writer keyed on — AddRow and SetValue the value, ReadCSV the
	// cell's text — so after "1" and "1.0" two entries hold one value, and a
	// reader that must not tell them apart goes through ranks.
	dict  []Value
	codes []int32
	// lookup maps a normalised cell's bits to a code; the first AddRow or
	// SetValue after a clone or a ReadCSV rebuilds it from dict.
	lookup map[cellKey]int32
}

// cellKey is a normalised Value compared by bits, so that NaN finds itself
// and -0 does not find 0.
type cellKey struct {
	kind        ValueKind
	num, lo, hi uint64
	str         string
}

func keyOf(v Value) cellKey {
	return cellKey{v.Kind, math.Float64bits(v.Num), math.Float64bits(v.Lo), math.Float64bits(v.Hi), v.Str}
}

// intern returns the code of an entry holding v, adding one if there is none.
func (c *column) intern(v Value) int32 {
	v = v.normalized()
	if c.lookup == nil {
		c.lookup = make(map[cellKey]int32, len(c.dict))
		for code, entry := range c.dict {
			c.lookup[keyOf(entry)] = int32(code)
		}
	}
	key := keyOf(v)
	code, ok := c.lookup[key]
	if !ok {
		code = int32(len(c.dict))
		c.dict = append(c.dict, v)
		c.lookup[key] = code
	}
	return code
}

// at returns the cell of row r.
func (c *column) at(r int) Value { return c.dict[c.codes[r]] }

// clone copies the codes and shares the dictionary's entries: the copy's dict
// has no spare capacity, so neither side's appends can reach the other.
func (c *column) clone() column {
	return column{dict: slices.Clip(c.dict), codes: slices.Clone(c.codes)}
}

// NewTable creates an empty table with the given columns.
func NewTable(columns ...Column) (*Table, error) {
	if len(columns) == 0 {
		return nil, errors.New("anonymize: table needs at least one column")
	}
	t := &Table{
		columns: append([]Column(nil), columns...),
		index:   make(map[string]int, len(columns)),
		cols:    make([]column, len(columns)),
	}
	for i, c := range columns {
		if strings.TrimSpace(c.Name) == "" {
			return nil, fmt.Errorf("anonymize: column %d has an empty name", i)
		}
		if _, dup := t.index[c.Name]; dup {
			return nil, fmt.Errorf("anonymize: duplicate column %q", c.Name)
		}
		t.index[c.Name] = i
	}
	return t, nil
}

// MustTable is like NewTable but panics on error; for fixtures.
func MustTable(columns ...Column) *Table {
	t, err := NewTable(columns...)
	if err != nil {
		panic(err)
	}
	return t
}

// AddRow appends a row; the number of values must match the columns.
func (t *Table) AddRow(values ...Value) error {
	if len(values) != len(t.columns) {
		return fmt.Errorf("anonymize: row has %d values, table has %d columns", len(values), len(t.columns))
	}
	for i, v := range values {
		col := &t.cols[i]
		col.codes = append(col.codes, col.intern(v))
	}
	t.nrows++
	return nil
}

// MustAddRow is like AddRow but panics on error; for fixtures.
func (t *Table) MustAddRow(values ...Value) {
	if err := t.AddRow(values...); err != nil {
		panic(err)
	}
}

// Columns returns a copy of the column definitions.
func (t *Table) Columns() []Column { return append([]Column(nil), t.columns...) }

// ColumnNames returns the column names in order.
func (t *Table) ColumnNames() []string {
	out := make([]string, len(t.columns))
	for i, c := range t.columns {
		out[i] = c.Name
	}
	return out
}

// ColumnIndex returns the position of the named column.
func (t *Table) ColumnIndex(name string) (int, bool) {
	i, ok := t.index[name]
	return i, ok
}

// Column returns the definition of the named column.
func (t *Table) Column(name string) (Column, bool) {
	if i, ok := t.index[name]; ok {
		return t.columns[i], true
	}
	return Column{}, false
}

// ColumnsByRole returns the names of columns with the given role, in order.
func (t *Table) ColumnsByRole(role ColumnRole) []string {
	var out []string
	for _, c := range t.columns {
		if c.Role == role {
			out = append(out, c.Name)
		}
	}
	return out
}

// ColumnValues returns a copy of the named column's cells in row order.
func (t *Table) ColumnValues(name string) ([]Value, bool) {
	i, ok := t.index[name]
	if !ok {
		return nil, false
	}
	col := &t.cols[i]
	out := make([]Value, t.nrows)
	for r := range out {
		out[r] = col.at(r)
	}
	return out, true
}

// NumRows returns the number of rows.
func (t *Table) NumRows() int { return t.nrows }

// NumColumns returns the number of columns.
func (t *Table) NumColumns() int { return len(t.columns) }

// Value returns the cell at (row, column name).
func (t *Table) Value(row int, column string) (Value, error) {
	if row < 0 || row >= t.nrows {
		return Value{}, fmt.Errorf("anonymize: row %d out of range [0,%d)", row, t.nrows)
	}
	i, ok := t.index[column]
	if !ok {
		return Value{}, fmt.Errorf("anonymize: unknown column %q", column)
	}
	return t.cols[i].at(row), nil
}

// Row returns a copy of the row's values.
func (t *Table) Row(row int) ([]Value, error) {
	if row < 0 || row >= t.nrows {
		return nil, fmt.Errorf("anonymize: row %d out of range [0,%d)", row, t.nrows)
	}
	out := make([]Value, len(t.cols))
	for i := range t.cols {
		out[i] = t.cols[i].at(row)
	}
	return out, nil
}

// SetValue overwrites the cell at (row, column name).
func (t *Table) SetValue(row int, column string, v Value) error {
	if row < 0 || row >= t.nrows {
		return fmt.Errorf("anonymize: row %d out of range [0,%d)", row, t.nrows)
	}
	i, ok := t.index[column]
	if !ok {
		return fmt.Errorf("anonymize: unknown column %q", column)
	}
	t.cols[i].codes[row] = t.cols[i].intern(v)
	return nil
}

// Clone returns an independent copy; the dictionaries' entries are shared.
func (t *Table) Clone() *Table {
	out, _ := t.Project(t.ColumnNames()...) // its own columns resolve
	return out
}

// Project returns a new table containing only the named columns (in the
// given order), with all rows copied.
func (t *Table) Project(columns ...string) (*Table, error) {
	idxs, err := t.resolveColumns(columns)
	if err != nil {
		return nil, err
	}
	cols := make([]Column, len(idxs))
	for j, i := range idxs {
		cols[j] = t.columns[i]
	}
	out, err := NewTable(cols...)
	if err != nil {
		return nil, err
	}
	out.nrows = t.nrows
	for j, i := range idxs {
		out.cols[j] = t.cols[i].clone()
	}
	return out, nil
}

// String renders the table as an aligned text grid, for reports and examples.
func (t *Table) String() string {
	widths := make([]int, len(t.columns))
	header := make([]string, len(t.columns))
	for i, c := range t.columns {
		header[i] = c.Name
		if c.Unit != "" {
			header[i] += " (" + c.Unit + ")"
		}
		widths[i] = len(header[i])
	}
	cells := make([][]string, t.nrows)
	for r := 0; r < t.nrows; r++ {
		cells[r] = make([]string, len(t.cols))
		for i := range t.cols {
			cells[r][i] = t.cols[i].at(r).String()
			widths[i] = max(widths[i], len(cells[r][i]))
		}
	}
	var b strings.Builder
	writeRow := func(values []string) {
		for i, v := range values {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(v)
			b.WriteString(strings.Repeat(" ", widths[i]-len(v)))
		}
		b.WriteString("\n")
	}
	writeRow(header)
	for _, row := range cells {
		writeRow(row)
	}
	return b.String()
}

// EquivalenceClasses partitions the row indices into groups whose values in
// the given columns are indistinguishable (identical group keys). The groups
// and their members are returned in deterministic order: groups sorted by
// their canonical key, members in ascending row order. Rows where every
// grouping column is suppressed form their own shared group. The build polls
// ctx; use a ClassIndex to compute each partition of a table once.
func (t *Table) EquivalenceClasses(ctx context.Context, columns []string) ([][]int, error) {
	return NewClassIndex(t).Classes(ctx, columns)
}

// resolveColumns maps column names to their indices, erroring on unknowns.
func (t *Table) resolveColumns(columns []string) ([]int, error) {
	idxs := make([]int, 0, len(columns))
	for _, name := range columns {
		i, ok := t.index[name]
		if !ok {
			return nil, fmt.Errorf("anonymize: unknown column %q", name)
		}
		idxs = append(idxs, i)
	}
	return idxs, nil
}
