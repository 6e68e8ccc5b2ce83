// Package report renders analysis results as plain-text and Markdown
// documents: model summaries, unwanted-disclosure assessments, the
// pseudonymisation-risk table of the paper's Table I, and policy-compliance
// reports. The CLI tools and examples print these; EXPERIMENTS.md embeds
// them.
//
// A document is measured, then written. The counting pass asks every table's
// row source for each cell once and yields the column widths and the exact
// size of the output; the write pass asks again and emits the bytes through
// one small chunk buffer into an io.Writer (Report.WriteTo) or into a string
// allocated once at that size (Report.Render). No row, table or section is
// formatted into a string of its own on the way.
package report

import (
	"bytes"
	"io"
	"strings"
)

// rowSource is the data rows of a table: how many there are, and the text of
// each cell on demand. A source is only read while rendering, so one table
// may be rendered from several goroutines at once.
type rowSource interface {
	numRows() int
	// appendCell appends the text of cell (row, col) to dst.
	appendCell(dst []byte, row, col int) []byte
}

// cellRows is the row source AddRow feeds: every row's cells, row-major, each
// row exactly cols wide.
type cellRows struct {
	cols, rows int
	cells      []string
}

func (c *cellRows) numRows() int { return c.rows }

func (c *cellRows) appendCell(dst []byte, row, col int) []byte {
	return append(dst, c.cells[row*c.cols+col]...)
}

// Table is a simple column-aligned table builder.
type Table struct {
	headers []string
	rows    rowSource
}

// NewTable creates a table with the given column headers.
func NewTable(headers ...string) *Table {
	return &Table{headers: append([]string(nil), headers...), rows: &cellRows{cols: len(headers)}}
}

// AddRow appends a row; short rows are padded with empty cells and long rows
// are truncated to the header width.
func (t *Table) AddRow(cells ...string) {
	stored, ok := t.rows.(*cellRows)
	if !ok {
		// The rows so far are computed on demand: store what they compute,
		// so the table keeps a single row source.
		stored = &cellRows{cols: len(t.headers), rows: t.rows.numRows()}
		var cell []byte
		for row := 0; row < stored.rows; row++ {
			for col := range t.headers {
				cell = t.rows.appendCell(cell[:0], row, col)
				stored.cells = append(stored.cells, string(cell))
			}
		}
		t.rows = stored
	}
	for col := range t.headers {
		cell := ""
		if col < len(cells) {
			cell = cells[col]
		}
		stored.cells = append(stored.cells, cell)
	}
	stored.rows++
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return t.rows.numRows() }

// Render produces an aligned plain-text rendering with a separator line under
// the header. Columns are as wide as their longest cell in bytes.
func (t *Table) Render() string { return render(t, textFormat) }

// RenderMarkdown produces a GitHub-flavoured Markdown table.
func (t *Table) RenderMarkdown() string { return render(t, markdownFormat) }

// Section is one titled block of a report: free text, a table, or both.
type Section struct {
	Title string
	Body  string
	Table *Table
}

// Report is a titled sequence of sections.
type Report struct {
	Title    string
	sections []Section
}

// NewReport creates an empty report with the given title.
func NewReport(title string) *Report { return &Report{Title: title} }

// AddSection appends a text section.
func (r *Report) AddSection(title, body string) *Report {
	r.sections = append(r.sections, Section{Title: title, Body: body})
	return r
}

// AddTable appends a table section with optional introductory text.
func (r *Report) AddTable(title, body string, table *Table) *Report {
	r.sections = append(r.sections, Section{Title: title, Body: body, Table: table})
	return r
}

// Sections returns a copy of the report's sections.
func (r *Report) Sections() []Section { return append([]Section(nil), r.sections...) }

// Render produces the plain-text document.
func (r *Report) Render() string { return render(r, textFormat) }

// RenderMarkdown produces the Markdown document.
func (r *Report) RenderMarkdown() string { return render(r, markdownFormat) }

// WriteTo writes the plain-text document to w, a chunk at a time, and stops
// at the first write error.
func (r *Report) WriteTo(w io.Writer) (int64, error) { return measure(r, textFormat).writeTo(w) }

// WriteMarkdownTo is WriteTo for the Markdown document.
func (r *Report) WriteMarkdownTo(w io.Writer) (int64, error) {
	return measure(r, markdownFormat).writeTo(w)
}

// format is the punctuation of an output format's table lines. Text tables
// are aligned: every cell padded to its column's width, the header ruled with
// that many dashes. Markdown tables are not, and escape '|' in data cells.
type format struct {
	markdown           bool
	open, between, end string
}

var (
	textFormat     = &format{between: "  ", end: "\n"}
	markdownFormat = &format{markdown: true, open: "| ", between: " | ", end: " |\n"}
)

// printable is a Table or a Report: something that lays itself out through a
// printer, the same way in the counting pass and in the write pass.
type printable interface {
	print(p *printer, f *format)
}

// printer is the sink of both passes over one document. All the scratch of a
// rendering lives here, none in the document.
type printer struct {
	doc printable
	f   *format
	// w is nil during the counting pass.
	w io.Writer
	// buf holds one cell during the counting pass and the chunk not yet
	// handed to w during the write pass.
	buf []byte
	// n is the size counted, then the number of bytes w has accepted.
	n   int64
	err error
	// widths has the column widths of every table in document order: found
	// by the counting pass, consumed (from next) by the write pass.
	widths [][]int
	next   int
}

// flushAt is the chunk size at which the write pass hands its buffer to the
// writer: large enough to amortise the call, small enough to stay in cache.
const flushAt = 32 << 10

// measure runs the counting pass over doc.
func measure(doc printable, f *format) *printer {
	p := &printer{doc: doc, f: f}
	doc.print(p, f)
	return p
}

// writeTo runs the write pass of a measured document.
func (p *printer) writeTo(w io.Writer) (int64, error) {
	p.w, p.buf, p.n = w, make([]byte, 0, min(p.n, 2*flushAt)), 0
	p.doc.print(p, p.f)
	p.flush()
	return p.n, p.err
}

// render is measure and writeTo into a string of exactly the measured size.
func render(doc printable, f *format) string {
	p := measure(doc, f)
	var b strings.Builder
	b.Grow(int(p.n))
	_, _ = p.writeTo(&b) // a strings.Builder accepts every write
	return b.String()
}

func (p *printer) str(s string) {
	if p.w == nil {
		p.n += int64(len(s))
		return
	}
	p.buf = append(p.buf, s...)
}

// underline rules a heading of n bytes with the first n bytes of run.
func (p *printer) underline(run string, n int) {
	if p.w == nil {
		p.n += int64(n)
		return
	}
	p.buf = appendRun(p.buf, run, n)
}

// flush hands the chunk to the writer. After a failed write the rest of the
// document is discarded.
func (p *printer) flush() {
	if p.w == nil {
		return
	}
	if p.err == nil {
		var n int
		n, p.err = p.w.Write(p.buf)
		p.n += int64(n)
	}
	p.buf = p.buf[:0]
}

func (r *Report) print(p *printer, f *format) {
	if r.Title != "" {
		if f.markdown {
			p.str("# ")
			p.str(r.Title)
		} else {
			p.str(r.Title)
			p.str("\n")
			p.underline(doubles, len(r.Title))
		}
		p.str("\n\n")
	}
	for _, s := range r.sections {
		if s.Title != "" {
			if f.markdown {
				p.str("## ")
				p.str(s.Title)
				p.str("\n\n")
			} else {
				p.str(s.Title)
				p.str("\n")
				p.underline(dashes, len(s.Title))
				p.str("\n")
			}
		}
		if s.Body != "" {
			p.str(s.Body)
			p.str("\n")
			if f.markdown {
				p.str("\n")
			}
		}
		if s.Table != nil {
			s.Table.print(p, f)
		}
		if s.Table != nil || !f.markdown {
			p.str("\n")
		}
	}
}

func (t *Table) print(p *printer, f *format) {
	if p.w == nil {
		p.widths = append(p.widths, t.measure(p, f))
		return
	}
	t.write(p, f, p.widths[p.next])
	p.next++
}

const rule = "---" // under a Markdown header

var pipe = []byte("|")

// measure is the counting pass over a table: it adds the exact size of the
// rendering to p and returns the width of every column.
func (t *Table) measure(p *printer, f *format) []int {
	widths := make([]int, len(t.headers))
	cells := 0 // bytes of all cells as written, unpadded
	for col, h := range t.headers {
		widths[col] = len(h)
		cells += len(h) + len(rule)
	}
	rows := t.rows.numRows()
	cell := p.buf
	for row := 0; row < rows; row++ {
		for col := range widths {
			cell = t.rows.appendCell(cell[:0], row, col)
			widths[col] = max(widths[col], len(cell))
			cells += len(cell)
			if f.markdown {
				cells += bytes.Count(cell, pipe)
			}
		}
	}
	p.buf = cell
	lines := rows + 2
	size := lines * (len(f.open) + max(len(widths)-1, 0)*len(f.between) + len(f.end))
	if f.markdown {
		size += cells
	} else {
		for _, w := range widths {
			size += lines * w
		}
	}
	p.n += int64(size)
	return widths
}

// The header and its rule are written by the same loop as the data rows.
const (
	headerRow = -2
	ruleRow   = -1
)

// Padding and rules are appended a slice at a time.
const (
	blanks  = "                                                                "
	dashes  = "----------------------------------------------------------------"
	doubles = "================================================================"
)

// appendRun appends the first n bytes of run repeated without end.
func appendRun(buf []byte, run string, n int) []byte {
	for ; n > len(run); n -= len(run) {
		buf = append(buf, run...)
	}
	return append(buf, run[:n]...)
}

// write is the write pass over a table.
func (t *Table) write(p *printer, f *format, widths []int) {
	// The chunk is a local while rows are appended, so that growing it is
	// not a pointer store into the heap-allocated printer.
	buf := p.buf
	rows := t.rows.numRows()
	for row := headerRow; row < rows && p.err == nil; row++ {
		buf = append(buf, f.open...)
		for col, width := range widths {
			if col > 0 {
				buf = append(buf, f.between...)
			}
			start := len(buf)
			switch {
			case row == headerRow:
				buf = append(buf, t.headers[col]...)
			case row == ruleRow && f.markdown:
				buf = append(buf, rule...)
			case row == ruleRow:
				buf = appendRun(buf, dashes, width)
			default:
				buf = t.rows.appendCell(buf, row, col)
				if f.markdown {
					buf = escapePipes(buf, start)
				}
			}
			if !f.markdown {
				buf = appendRun(buf, blanks, width-(len(buf)-start))
			}
		}
		buf = append(buf, f.end...)
		if len(buf) >= flushAt {
			p.buf = buf
			p.flush()
			buf = p.buf
		}
	}
	p.buf = buf
}

// escapePipes rewrites buf[from:] in place with a backslash before every '|'.
func escapePipes(buf []byte, from int) []byte {
	extra := bytes.Count(buf[from:], pipe)
	if extra == 0 {
		return buf
	}
	src := len(buf) - 1
	for ; extra > 0; extra-- {
		buf = append(buf, 0)
	}
	for dst := len(buf) - 1; src >= from; src-- {
		buf[dst] = buf[src]
		dst--
		if buf[src] == '|' {
			buf[dst] = '\\'
			dst--
		}
	}
	return buf
}
