package anonymize

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func TestReadCSVRejectsDuplicateHeader(t *testing.T) {
	for _, input := range []string{
		"age,age\n23,24\n",
		"age,height,age\n23,182,24\n",
		"age, age\n23,24\n", // TrimLeadingSpace makes these collide
	} {
		_, err := ReadCSV(strings.NewReader(input), nil)
		if err == nil {
			t.Errorf("duplicate header accepted: %q", input)
			continue
		}
		if !strings.Contains(err.Error(), "duplicate CSV header") {
			t.Errorf("error %q does not name the duplicate header", err)
		}
	}
}

func TestReadCSVRaggedRows(t *testing.T) {
	for _, tc := range []struct {
		name, input string
		wantRow     string
	}{
		{"short row", "a,b\n1,2\n3\n", "row 2"},
		{"long row", "a,b\n1,2,3\n", "row 1"},
		{"bare quote", "a,b\n1,\"x\ny\n", "row 1"},
	} {
		_, err := ReadCSV(strings.NewReader(tc.input), nil)
		if err == nil {
			t.Errorf("%s: malformed CSV accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantRow) {
			t.Errorf("%s: error %q does not locate %s", tc.name, err, tc.wantRow)
		}
	}
}

func TestReadCSVStreamsLargeInput(t *testing.T) {
	// Build a CSV bigger than any internal buffer, with heavy cell repetition,
	// and check the streamed columnar result cell by cell.
	var b strings.Builder
	b.WriteString("city,age,weight\n")
	cities := []string{"berlin", "paris", "london"}
	const rows = 10000
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, "%s,%d,%d\n", cities[i%len(cities)], 20+i%50, 50+i%40)
	}
	tbl, err := ReadCSV(strings.NewReader(b.String()), ColumnSpec{"city": RoleQuasiIdentifier})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != rows {
		t.Fatalf("rows = %d, want %d", tbl.NumRows(), rows)
	}
	col, ok := tbl.Column("city")
	if !ok || col.Role != RoleQuasiIdentifier {
		t.Errorf("city column = %+v, role not applied", col)
	}
	cityCol, _ := tbl.ColumnValues("city")
	ageCol, _ := tbl.ColumnValues("age")
	for i := 0; i < rows; i++ {
		if want := cities[i%len(cities)]; cityCol[i].Str != want {
			t.Fatalf("row %d city = %q, want %q", i, cityCol[i].Str, want)
		}
		if want := float64(20 + i%50); ageCol[i].Num != want {
			t.Fatalf("row %d age = %v, want %v", i, ageCol[i].Num, want)
		}
	}
}

// TestReadCSVRepeatedCellsShareAnEntry: a cell text that repeats in its column
// is parsed and stored once. A value spelt two ways ("41.5", "41.50"; "*", "")
// is stored under each spelling and still reads back, and groups, as one.
func TestReadCSVRepeatedCellsShareAnEntry(t *testing.T) {
	input := "city,x\nberlin,41.5\nberlin,41.50\nparis,30-40\nberlin,*\nparis,\nberlin,30-40\nparis,41.5\n"
	tbl, err := ReadCSV(strings.NewReader(input), nil)
	if err != nil {
		t.Fatal(err)
	}
	city, x := tbl.cols[0], tbl.cols[1]
	if len(city.dict) != 2 || len(x.dict) != 5 {
		t.Fatalf("dictionaries hold %d and %d entries, want 2 and 5: %v %v", len(city.dict), len(x.dict), city.dict, x.dict)
	}
	for r, want := range []Value{Num(41.5), Num(41.5), Interval(30, 40), Suppressed(), Suppressed(), Interval(30, 40), Num(41.5)} {
		if got := x.at(r); got != want {
			t.Errorf("row %d = %v, want %v", r, got, want)
		}
	}
	classes, err := tbl.EquivalenceClasses(ctx, []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]int{{3, 4}, {2, 5}, {0, 1, 6}}; !reflect.DeepEqual(classes, want) {
		t.Errorf("classes over x = %v, want %v", classes, want)
	}
}

// TestReadCSVOwnsItsCells: nothing the table holds aliases what it was read
// from. The caller may overwrite its input, and a stored category does not
// keep alive the record it was cut from — encoding/csv hands out each record's
// fields as slices of one string, here a kilobyte of which is filler.
func TestReadCSVOwnsItsCells(t *testing.T) {
	const rows = 2000
	filler := strings.Repeat("x", 1024)
	var input bytes.Buffer
	input.WriteString("id,filler\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&input, "patient-%d,%s\n", i, filler)
	}
	buf := input.Bytes()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tbl, err := ReadCSV(bytes.NewReader(buf), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 'X'
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if v, _ := tbl.Value(rows-1, "id"); v != Cat(fmt.Sprintf("patient-%d", rows-1)) || tbl.ColumnNames()[0] != "id" {
		t.Errorf("table aliased the input: column %q, cell %v", tbl.ColumnNames()[0], v)
	}
	// Pinned records would be rows KB; the table itself is a tenth of that.
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > rows*1024/2 {
		t.Errorf("heap grew %d bytes for %d short cells: the records are still alive", grown, rows)
	}
	runtime.KeepAlive(tbl)
	runtime.KeepAlive(buf) // or freeing it would hide the growth
}

func TestReadCSVQuotedAndTypedCells(t *testing.T) {
	input := "name,range,score\n\"Smith, John\",30-40,*\nplain,7,-3.5\n"
	tbl, err := ReadCSV(strings.NewReader(input), nil)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := tbl.Value(0, "name")
	if v.Kind != KindCategorical || v.Str != "Smith, John" {
		t.Errorf("quoted cell = %v", v)
	}
	v, _ = tbl.Value(0, "range")
	if v.Kind != KindInterval || v.Lo != 30 || v.Hi != 40 {
		t.Errorf("interval cell = %v", v)
	}
	v, _ = tbl.Value(0, "score")
	if !v.IsSuppressed() {
		t.Errorf("suppressed cell = %v", v)
	}
	v, _ = tbl.Value(1, "score")
	if v.Kind != KindNumeric || v.Num != -3.5 {
		t.Errorf("negative numeric cell = %v", v)
	}
}

func TestReadCSVHeaderOnly(t *testing.T) {
	tbl, err := ReadCSV(strings.NewReader("a,b\n"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 0 || tbl.NumColumns() != 2 {
		t.Errorf("rows=%d cols=%d, want 0 and 2", tbl.NumRows(), tbl.NumColumns())
	}
}
