package report_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"privascope/internal/core"
	"privascope/internal/proptest"
	"privascope/internal/report"
	"privascope/internal/risk"
	"privascope/internal/synth"
)

// refTable and refReport are the straightforward renderer the measured one
// must equal: every row stored as strings, every table rendered into a
// string of its own, widths in bytes.
type refTable struct {
	headers []string
	rows    [][]string
}

func (t *refTable) addRow(cells ...string) {
	row := make([]string, len(t.headers))
	copy(row, cells) // pads short rows, truncates long ones
	t.rows = append(t.rows, row)
}

func (t *refTable) text() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			widths[i] = max(widths[i], len(c))
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c + strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteString("\n")
	}
	line(t.headers)
	rule := make([]string, len(t.headers))
	for i, w := range widths {
		rule[i] = strings.Repeat("-", w)
	}
	line(rule)
	for _, row := range t.rows {
		line(row)
	}
	return b.String()
}

func (t *refTable) markdown() string {
	var b strings.Builder
	b.WriteString("| " + strings.Join(t.headers, " | ") + " |\n")
	rule := make([]string, len(t.headers))
	for i := range rule {
		rule[i] = "---"
	}
	b.WriteString("| " + strings.Join(rule, " | ") + " |\n")
	for _, row := range t.rows {
		escaped := make([]string, len(row))
		for i, c := range row {
			escaped[i] = strings.ReplaceAll(c, "|", "\\|")
		}
		b.WriteString("| " + strings.Join(escaped, " | ") + " |\n")
	}
	return b.String()
}

type refSection struct {
	title, body string
	table       *refTable
}

type refReport struct {
	title    string
	sections []refSection
}

func (r *refReport) text() string {
	var b strings.Builder
	if r.title != "" {
		b.WriteString(r.title + "\n" + strings.Repeat("=", len(r.title)) + "\n\n")
	}
	for _, s := range r.sections {
		if s.title != "" {
			b.WriteString(s.title + "\n" + strings.Repeat("-", len(s.title)) + "\n")
		}
		if s.body != "" {
			b.WriteString(s.body + "\n")
		}
		if s.table != nil {
			b.WriteString(s.table.text())
		}
		b.WriteString("\n")
	}
	return b.String()
}

func (r *refReport) markdown() string {
	var b strings.Builder
	if r.title != "" {
		fmt.Fprintf(&b, "# %s\n\n", r.title)
	}
	for _, s := range r.sections {
		if s.title != "" {
			fmt.Fprintf(&b, "## %s\n\n", s.title)
		}
		if s.body != "" {
			b.WriteString(s.body + "\n\n")
		}
		if s.table != nil {
			b.WriteString(s.table.markdown() + "\n")
		}
	}
	return b.String()
}

// drawCell draws cell text: empty, ASCII, multi-byte, with pipes, or wider
// than the padding run the write pass appends at a time.
func drawCell(rng *rand.Rand) string {
	switch rng.Intn(8) {
	case 0:
		return ""
	case 1:
		return []string{"é", "日本語", "naïve|ß", "—"}[rng.Intn(4)]
	case 2:
		return []string{"|", "a|b", "||x||", `\|`}[rng.Intn(4)]
	case 3:
		return strings.Repeat("w", 60+rng.Intn(90))
	default:
		cell := make([]byte, rng.Intn(12))
		for i := range cell {
			cell[i] = " abcXYZ019-_.,"[rng.Intn(14)]
		}
		return string(cell)
	}
}

// drawTable draws the same table twice: 0–6 columns, 0–50 rows, rows short,
// exact and over-long.
func drawTable(rng *rand.Rand) (*report.Table, *refTable) {
	headers := make([]string, rng.Intn(7))
	for i := range headers {
		headers[i] = drawCell(rng)
	}
	tbl, ref := report.NewTable(headers...), &refTable{headers: headers}
	for row, rows := 0, rng.Intn(51); row < rows; row++ {
		cells := make([]string, rng.Intn(len(headers)+3))
		for i := range cells {
			cells[i] = drawCell(rng)
		}
		tbl.AddRow(cells...)
		ref.addRow(cells...)
	}
	return tbl, ref
}

// TestPropRenderEqualsReference: for random tables and random reports of
// them, the measured rendering equals the reference renderer's, in text and
// in Markdown, and writing to an io.Writer gives the same bytes and counts
// them.
func TestPropRenderEqualsReference(t *testing.T) {
	same := func(seed int64, what, got, want string) {
		t.Helper()
		if got != want {
			t.Fatalf("seed %d: %s differs from the reference\n--- got ---\n%s\n--- want ---\n%s", seed, what, got, want)
		}
	}
	proptest.Run(t, func(seed int64, rng *rand.Rand) error {
		for doc := 0; doc < 20; doc++ {
			r, ref := report.NewReport(drawCell(rng)), &refReport{}
			ref.title = r.Title
			for s, sections := 0, rng.Intn(5); s < sections; s++ {
				title, body := drawCell(rng), drawCell(rng)
				if rng.Intn(3) == 0 {
					r.AddSection(title, body)
					ref.sections = append(ref.sections, refSection{title: title, body: body})
					continue
				}
				tbl, refTbl := drawTable(rng)
				if tbl.NumRows() != len(refTbl.rows) {
					t.Fatalf("seed %d: NumRows = %d, want %d", seed, tbl.NumRows(), len(refTbl.rows))
				}
				same(seed, "table text", tbl.Render(), refTbl.text())
				same(seed, "table Markdown", tbl.RenderMarkdown(), refTbl.markdown())
				r.AddTable(title, body, tbl)
				ref.sections = append(ref.sections, refSection{title: title, body: body, table: refTbl})
			}
			same(seed, "report text", r.Render(), ref.text())
			same(seed, "report Markdown", r.RenderMarkdown(), ref.markdown())

			var buf bytes.Buffer
			n, err := r.WriteTo(&buf)
			if err != nil || n != int64(buf.Len()) {
				t.Fatalf("seed %d: WriteTo = %d, %v; wrote %d bytes", seed, n, err, buf.Len())
			}
			same(seed, "WriteTo", buf.String(), ref.text())
			buf.Reset()
			n, err = r.WriteMarkdownTo(&buf)
			if err != nil || n != int64(buf.Len()) {
				t.Fatalf("seed %d: WriteMarkdownTo = %d, %v; wrote %d bytes", seed, n, err, buf.Len())
			}
			same(seed, "WriteMarkdownTo", buf.String(), ref.markdown())
		}
		return nil
	})
}

// TestColumnWidthIsInBytes pins the alignment unit: a column is as wide as
// its longest cell's len, so a two-byte rune counts as two columns.
func TestColumnWidthIsInBytes(t *testing.T) {
	tbl := report.NewTable("h", "x")
	tbl.AddRow("é", "1")
	tbl.AddRow("abc", "2")
	if got, want := tbl.Render(), "h    x\n---  -\né   1\nabc  2\n"; got != want {
		t.Fatalf("Render() = %q, want %q", got, want)
	}
}

// assessed analyses one synthetic model for its first simulated user.
func assessed(t testing.TB, spec synth.ModelSpec) *risk.Assessment {
	t.Helper()
	m := synth.Model(spec)
	p, err := core.Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	profiles := synth.Population(m, synth.PopulationOptions{Users: 1, Seed: 7, SensitiveFields: synth.SensitiveFieldsOf(m)})
	a, err := risk.MustAnalyzer(risk.Config{}).Analyze(p, profiles[0])
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestFindingsTableEqualsStoredRows: the findings table, whose cells are
// formatted on demand from the assessment, renders the bytes the same cells
// stored with AddRow do — and still takes an AddRow itself.
func TestFindingsTableEqualsStoredRows(t *testing.T) {
	a := assessed(t, synth.ModelSpec{Services: 2, FieldsPerService: 2, ExtraActors: 1})
	if len(a.Findings) == 0 {
		t.Fatal("no findings to tabulate")
	}
	stored := report.NewTable("risk", "actor", "action", "datastore", "driving field", "impact", "likelihood", "explanation")
	for _, f := range a.Findings {
		stored.AddRow(f.Risk.String(), f.Actor, f.Action.String(), f.Datastore, f.DrivingField,
			fmt.Sprintf("%.2f (%s)", f.Impact, f.ImpactLevel),
			fmt.Sprintf("%.2f (%s)", f.Likelihood, f.LikelihoodLevel), f.Explanation)
	}
	computed := report.DisclosureAssessment(a).Sections()[1].Table
	if computed.NumRows() != len(a.Findings) {
		t.Fatalf("NumRows = %d, want %d", computed.NumRows(), len(a.Findings))
	}
	for range 2 {
		if computed.Render() != stored.Render() || computed.RenderMarkdown() != stored.RenderMarkdown() {
			t.Fatalf("computed findings table differs from stored rows:\n%s\n--- stored ---\n%s", computed.Render(), stored.Render())
		}
		computed.AddRow("low", "somebody|else")
		stored.AddRow("low", "somebody|else")
	}
}

// TestReportAllocationsArePerReport: building and rendering a disclosure
// assessment costs the same few allocations whether it lists two thousand
// findings or nine times as many. The short listing is every ninth finding of
// the long one plus the first to show each mitigation and each score, so the
// two reports differ in nothing but their number of rows.
func TestReportAllocationsArePerReport(t *testing.T) {
	large := assessed(t, synth.ModelSpec{Services: 5, FieldsPerService: 3, ExtraActors: 2})
	if len(large.Findings) < 18000 {
		t.Fatalf("large assessment has %d findings, want at least 18000", len(large.Findings))
	}
	small := *large
	small.Findings = nil
	shown := make(map[string]bool)
	for i, f := range large.Findings {
		key := fmt.Sprint(f.Actor, f.Mitigation, f.Impact, f.Likelihood)
		if i%9 == 0 || !shown[key] {
			small.Findings = append(small.Findings, f)
		}
		shown[key] = true
	}
	if len(small.Findings) > 2500 {
		t.Fatalf("small assessment has %d findings, want about 2000", len(small.Findings))
	}
	var size int
	allocs := func(a *risk.Assessment) float64 {
		return testing.AllocsPerRun(5, func() { size = len(report.DisclosureAssessment(a).Render()) })
	}
	few, many := allocs(&small), allocs(large)
	t.Logf("%d findings: %.0f allocations; %d findings: %.0f allocations, %d bytes",
		len(small.Findings), few, len(large.Findings), many, size)
	// The handful of Sprintf calls per report draw printers from a sync.Pool,
	// which a collection empties and the race detector thins at random; each
	// miss is an allocation or two, so the counts may differ by that much.
	if many > few+16 || many > 200 {
		t.Errorf("%.0f allocations for %d findings, %.0f for %d: want the same number, at most 200",
			many, len(large.Findings), few, len(small.Findings))
	}
}

// failingWriter accepts limit bytes, then fails.
type failingWriter struct {
	limit, written, calls int
	err                   error
}

func (w *failingWriter) Write(p []byte) (int, error) {
	w.calls++
	n := min(len(p), w.limit-w.written)
	w.written += n
	if n < len(p) {
		return n, w.err
	}
	return n, nil
}

// TestWriteToStopsAtFirstError: a writer that fails after k bytes is not
// written to again, and WriteTo returns its error and what it accepted.
func TestWriteToStopsAtFirstError(t *testing.T) {
	r := report.DisclosureAssessment(assessed(t, synth.ModelSpec{Services: 4, FieldsPerService: 2}))
	size := len(r.Render())
	if size < 200_000 {
		t.Fatalf("report of %d bytes does not span several chunks", size)
	}
	for _, limit := range []int{0, 1, 40_000, size - 1} {
		w := &failingWriter{limit: limit, err: errors.New("disk full")}
		n, err := r.WriteTo(w)
		if !errors.Is(err, w.err) || n != int64(limit) {
			t.Errorf("limit %d: WriteTo = %d, %v; want %d and the writer's error", limit, n, err, limit)
		}
		if healthy := limit/(32<<10) + 1; w.calls > healthy {
			t.Errorf("limit %d: %d writes, want none after the failing one (at most %d)", limit, w.calls, healthy)
		}
	}
}

// TestConcurrentRendersAgree: one report rendered from four goroutines at
// once gives each the same bytes (and, under -race, shares no scratch).
func TestConcurrentRendersAgree(t *testing.T) {
	r := report.DisclosureAssessment(assessed(t, synth.ModelSpec{Services: 3, FieldsPerService: 2}))
	extra := report.NewTable("k", "v")
	extra.AddRow("a|b", "1")
	r.AddTable("Stored rows", "", extra)
	want, wantMarkdown := r.Render(), r.RenderMarkdown()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			if _, err := r.WriteTo(&buf); err != nil || buf.String() != want || r.Render() != want {
				t.Errorf("concurrent text rendering differs (err %v)", err)
			}
			if r.RenderMarkdown() != wantMarkdown {
				t.Error("concurrent Markdown rendering differs")
			}
		}()
	}
	wg.Wait()
}
