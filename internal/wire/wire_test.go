package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// tableBytes is a count-prefixed string table, the shape Frame.Records reads.
func tableBytes(strs ...string) []byte {
	var w Buf
	w.U32(uint32(len(strs)))
	w.StringTable(strs)
	return w.B
}

// hostileTables are the malformed string tables the three format decoders
// each used to test separately; every one must come back as an error.
func hostileTables() map[string][]byte {
	valid := tableBytes("", "doctor", "ehr", "")
	put := func(at int, v uint32) []byte {
		b := bytes.Clone(valid)
		binary.LittleEndian.PutUint32(b[at:], v)
		return b
	}
	return map[string][]byte{
		// An intermediate offset spikes past the blob while the first and
		// last stay honest: pairwise checks alone would slice with it.
		"offset-spike":       put(4+2*4, 1<<30),
		"decreasing-offset":  put(4+3*4, 1),
		"non-empty-entry-0":  tableBytes("x", "y"),
		"entry-0-not-at-0":   put(4, 2),
		"truncated-offsets":  valid[:4+3*4],
		"truncated-blob":     valid[:len(valid)-1],
		"zero-count":         put(0, 0),
		"count-past-the-end": put(0, 1<<31),
		"no-count":           valid[:3],
	}
}

// readTable reads a count-prefixed table the way Frame.Records does.
func readTable(data []byte) (*Cursor, []string, error) {
	c := NewCursor("test", data)
	count, err := c.Take(4)
	if err != nil {
		return c, nil, err
	}
	strs, err := c.Strings(int(binary.LittleEndian.Uint32(count)))
	return c, strs, err
}

func TestStringTableRoundTrip(t *testing.T) {
	want := []string{"", "doctor", "ehr", "", "diagnosis"}
	c, got, err := readTable(append(tableBytes(want...), 0xAA, 0xBB))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %q, want %q", got, want)
	}
	if c.Len() != 2 {
		t.Fatalf("cursor has %d bytes left after the blob, want the 2 that follow it", c.Len())
	}
	if err := c.Done(); err == nil || !strings.HasPrefix(err.Error(), "test: ") {
		t.Fatalf("Done with trailing bytes: %v, want a labelled error", err)
	}
}

func TestStringTableRejectsHostileInput(t *testing.T) {
	for name, data := range hostileTables() {
		_, strs, err := readTable(data)
		if err == nil {
			t.Errorf("%s: accepted as %q", name, strs)
		} else if !strings.HasPrefix(err.Error(), "test: ") {
			t.Errorf("%s: error %q lacks the cursor's label", name, err)
		}
	}
}

func TestInterner(t *testing.T) {
	var in Interner
	for round := 0; round < 2; round++ { // a reused interner starts over
		in.Reset()
		for i, s := range []string{"b", "a", "", "b", "c"} {
			if got, want := in.Ref(s), []uint32{1, 2, 0, 1, 3}[i]; got != want {
				t.Fatalf("round %d: Ref(%q) = %d, want %d", round, s, got, want)
			}
		}
		if got := in.Strings(); !reflect.DeepEqual(got, []string{"", "b", "a", "c"}) {
			t.Fatalf("round %d: table %q is not in first-occurrence order", round, got)
		}
		var w Buf
		w.StringTable(in.Strings())
		if in.TableSize() != len(w.B) {
			t.Fatalf("TableSize %d, StringTable wrote %d bytes", in.TableSize(), len(w.B))
		}
		in.Truncate(2)
		if in.TableSize() != 4*3+1 || in.Ref("a") != 2 || in.Ref("c") != 3 {
			t.Fatalf("round %d: after Truncate(2) the table is %q", round, in.Strings())
		}
	}
}

func TestCursorColumns(t *testing.T) {
	var w Buf
	w.I32s([]int32{-1, 7})
	w.U32(1 << 31)
	w.U64(1<<63 | 5)
	w.U16(0xBEEF)
	w.U8(9)
	w.F64(0.5)
	c := NewCursor("test", w.B)
	i32, err1 := c.I32s(2)
	u32, err2 := c.U32s(1)
	u64, err3 := c.U64s(1)
	if err := errors.Join(err1, err2, err3); err != nil {
		t.Fatal(err)
	}
	if i32[0] != -1 || i32[1] != 7 || u32[0] != 1<<31 || u64[0] != 1<<63|5 {
		t.Fatalf("columns read back as %v %v %v", i32, u32, u64)
	}
	rest, err := c.Take(11)
	if err != nil || binary.LittleEndian.Uint16(rest) != 0xBEEF || rest[2] != 9 {
		t.Fatalf("scalars read back as %x (%v)", rest, err)
	}
	if err := c.Done(); err != nil {
		t.Fatal(err)
	}
	// Counts no buffer could hold are errors, not allocations or overflows.
	for _, n := range []int{-1, 1, 1 << 40} {
		if _, err := c.U64s(n); err == nil {
			t.Errorf("U64s(%d) on an exhausted cursor succeeded", n)
		}
		if _, err := c.I32s(n); err == nil {
			t.Errorf("I32s(%d) on an exhausted cursor succeeded", n)
		}
	}
	if vs, err := c.U32s(0); vs != nil || err != nil {
		t.Errorf("U32s(0) = %v, %v; want nil, nil", vs, err)
	}
}

var errTestNewer = errors.New("test: newer")

var testFrame = Frame{Magic: "TEST", Version: 3, MaxBytes: 1 << 10, MaxCount: 8, Label: "test: bad frame", ErrNewer: errTestNewer}

func TestFrameRoundTrip(t *testing.T) {
	var in Interner
	in.Reset()
	var recs Buf
	recs.U32(in.Ref("alice"))
	recs.U32(in.Ref("bob"))
	frame := testFrame.Append([]byte("prefix"), &in, 2, recs.B)
	frame = frame[len("prefix"):]
	if len(frame) != testFrame.Size(&in, len(recs.B)) {
		t.Fatalf("frame is %d bytes, Size says %d", len(frame), testFrame.Size(&in, len(recs.B)))
	}
	total, count, err := testFrame.ParseHeader(frame[:HeaderSize])
	if err != nil || total != len(frame) || count != 2 {
		t.Fatalf("ParseHeader = %d, %d, %v; want %d, 2, nil", total, count, err, len(frame))
	}
	if n, err := testFrame.ParseFrame(frame); err != nil || n != 2 {
		t.Fatalf("ParseFrame = %d, %v; want 2, nil", n, err)
	}
	for _, b := range [][]byte{frame[:len(frame)-1], append(bytes.Clone(frame), 0)} {
		if _, err := testFrame.ParseFrame(b); err == nil {
			t.Fatalf("ParseFrame accepted %d bytes for a %d-byte frame", len(b), len(frame))
		}
	}
	c, strs, err := testFrame.Records(frame)
	if err != nil || !reflect.DeepEqual(strs, []string{"", "alice", "bob"}) {
		t.Fatalf("Records = %q, %v", strs, err)
	}
	if got, _ := c.Take(c.Len()); !bytes.Equal(got, recs.B) {
		t.Fatalf("records read back as %x, want %x", got, recs.B)
	}
}

func TestParseHeaderRejects(t *testing.T) {
	var in Interner
	in.Reset()
	good := testFrame.Append(nil, &in, 1, []byte{1, 2, 3, 4})
	mutate := func(f func(b []byte)) []byte {
		b := bytes.Clone(good)
		f(b)
		return b
	}
	cases := map[string][]byte{
		"short":          good[:HeaderSize-1],
		"bad magic":      mutate(func(b []byte) { b[0] = 'X' }),
		"older version":  mutate(func(b []byte) { binary.LittleEndian.PutUint16(b[4:], 2) }),
		"reserved set":   mutate(func(b []byte) { b[6] = 1 }),
		"length < hdr":   mutate(func(b []byte) { binary.LittleEndian.PutUint32(b[8:], HeaderSize-1) }),
		"length > max":   mutate(func(b []byte) { binary.LittleEndian.PutUint32(b[8:], 1<<10+1) }),
		"length 4 GiB-1": mutate(func(b []byte) { binary.LittleEndian.PutUint32(b[8:], 1<<32-1) }),
		"zero count":     mutate(func(b []byte) { binary.LittleEndian.PutUint32(b[12:], 0) }),
		"count > max":    mutate(func(b []byte) { binary.LittleEndian.PutUint32(b[12:], 9) }),
	}
	for name, data := range cases {
		_, _, err := testFrame.ParseHeader(data)
		if err == nil || !strings.HasPrefix(err.Error(), "test: bad frame: ") || errors.Is(err, errTestNewer) {
			t.Errorf("%s: err = %v, want a labelled corruption error", name, err)
		}
	}
	newer := mutate(func(b []byte) { binary.LittleEndian.PutUint16(b[4:], 4) })
	if _, _, err := testFrame.ParseHeader(newer); !errors.Is(err, errTestNewer) {
		t.Errorf("newer version: err = %v, want ErrNewer wrapped", err)
	}
}
