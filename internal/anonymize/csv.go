package anonymize

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// ColumnSpec assigns roles to columns when reading a CSV file. Keys are
// column names (as they appear in the header); unnamed columns default to
// RoleStandard.
type ColumnSpec map[string]ColumnRole

// ReadCSV reads a table from CSV text. The first record is the header; each
// cell is parsed with ParseValue, so numbers become numeric values, "lo-hi"
// becomes an interval, "*" a suppressed cell, and everything else a
// category.
//
// The input is streamed record-at-a-time into the table's dictionary-encoded
// columns — the whole file is never buffered — and each distinct cell text of
// a column is parsed and stored once; every repetition costs one map probe and
// four bytes. No stored value aliases the reader's buffer. Duplicate header
// column names are rejected (a duplicate would make every lookup silently
// resolve to the first column of that name), as are ragged rows whose cell
// count differs from the header's.
func ReadCSV(r io.Reader, spec ColumnSpec) (*Table, error) {
	reader := csv.NewReader(r)
	reader.TrimLeadingSpace = true
	reader.ReuseRecord = true

	header, err := reader.Read()
	if err == io.EOF {
		return nil, fmt.Errorf("anonymize: CSV input is empty")
	}
	if err != nil {
		return nil, fmt.Errorf("anonymize: reading CSV header: %w", err)
	}
	columns := make([]Column, len(header))
	seen := make(map[string]int, len(header))
	for i, name := range header {
		name = strings.Clone(strings.TrimSpace(name))
		if first, dup := seen[name]; dup {
			return nil, fmt.Errorf("anonymize: duplicate CSV header column %q (columns %d and %d); every column lookup would resolve to the first one only", name, first+1, i+1)
		}
		seen[name] = i
		role, ok := spec[name]
		if !ok {
			role = RoleStandard
		}
		columns[i] = Column{Name: name, Role: role}
	}
	t, err := NewTable(columns...)
	if err != nil {
		return nil, err
	}

	// texts maps a column's cell texts to codes: a repeated cell costs this one
	// probe, a new one the probe and its insert. An equal value under another
	// text ("1", "1.0") is not looked for; see column.dict.
	texts := make([]map[string]int32, len(columns))
	for i := range texts {
		texts[i] = make(map[string]int32)
	}
	for row := 1; ; row++ {
		record, err := reader.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			// encoding/csv reports ragged rows (ErrFieldCount, measured
			// against the header record) and quoting problems here; wrap
			// with the data row number for context.
			return nil, fmt.Errorf("anonymize: CSV row %d: %w", row, err)
		}
		for i, cell := range record {
			col := &t.cols[i]
			code, ok := texts[i][cell]
			if !ok {
				// The record's backing array is reused: own the text, which
				// also keeps a category from pinning a whole record.
				cell = strings.Clone(cell)
				code = int32(len(col.dict))
				col.dict = append(col.dict, ParseValue(cell).normalized())
				texts[i][cell] = code
			}
			col.codes = append(col.codes, code)
		}
		t.nrows++
	}
	return t, nil
}

// WriteCSV writes the table as CSV, rendering cells with Value.String.
func WriteCSV(w io.Writer, t *Table) error {
	writer := csv.NewWriter(w)
	if err := writer.Write(t.ColumnNames()); err != nil {
		return fmt.Errorf("anonymize: writing CSV header: %w", err)
	}
	cells := make([]string, len(t.cols))
	for r := 0; r < t.nrows; r++ {
		for i := range t.cols {
			cells[i] = t.cols[i].at(r).String()
		}
		if err := writer.Write(cells); err != nil {
			return fmt.Errorf("anonymize: writing CSV row %d: %w", r, err)
		}
	}
	writer.Flush()
	if err := writer.Error(); err != nil {
		return fmt.Errorf("anonymize: flushing CSV: %w", err)
	}
	return nil
}
