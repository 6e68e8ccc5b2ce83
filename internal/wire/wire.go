// Package wire is the codec substrate under the repo's three binary formats:
// PSM model artifacts (internal/modelstore), PSEF event frames and PSHO
// state-handoff frames (internal/cluster). It holds the one implementation of
// what they share — a little-endian append buffer, a bounds-checked read
// cursor, the first-occurrence string interner, the string table both ways,
// and the 16-byte frame header of PSEF and PSHO — so each format keeps only
// its schema, and the hostile-input handling is written and fuzzed once.
//
// Every multi-byte value is little-endian regardless of host. Decoded values
// are always copied out of the input: nothing a Cursor returns, except the
// raw bytes of Take, aliases the buffer it reads. Errors carry the label the
// caller supplied ("cluster: invalid frame", "modelstore: invalid artifact:
// states section"), so each format's error prefix survives without wrapping
// at every call site.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Buf appends little-endian scalars to a byte slice.
type Buf struct{ B []byte }

// U8 appends one byte.
func (w *Buf) U8(v uint8) { w.B = append(w.B, v) }

// U16 appends v in two bytes.
func (w *Buf) U16(v uint16) { w.B = binary.LittleEndian.AppendUint16(w.B, v) }

// U32 appends v in four bytes.
func (w *Buf) U32(v uint32) { w.B = binary.LittleEndian.AppendUint32(w.B, v) }

// I32 appends v in four bytes, two's complement.
func (w *Buf) I32(v int32) { w.U32(uint32(v)) }

// U64 appends v in eight bytes.
func (w *Buf) U64(v uint64) { w.B = binary.LittleEndian.AppendUint64(w.B, v) }

// F64 appends the IEEE 754 bits of v in eight bytes.
func (w *Buf) F64(v float64) { w.U64(math.Float64bits(v)) }

// I32s appends a whole int32 column.
func (w *Buf) I32s(vs []int32) {
	for _, v := range vs {
		w.I32(v)
	}
}

// U32s appends a whole uint32 column.
func (w *Buf) U32s(vs []uint32) {
	for _, v := range vs {
		w.U32(v)
	}
}

// StringTable appends a string table: len(strs)+1 monotone uint32 offsets
// into the blob, then the blob of concatenated string bytes. The count is the
// caller's to place (PSEF and PSHO write it just before, PSM in its meta
// section).
func (w *Buf) StringTable(strs []string) {
	off := uint32(0)
	for _, s := range strs {
		w.U32(off)
		off += uint32(len(s))
	}
	w.U32(off)
	for _, s := range strs {
		w.B = append(w.B, s...)
	}
}

// Interner assigns dense references to strings in first-occurrence order, so
// a table written from it is canonical: the same inputs in the same order
// yield the same bytes. Reference 0 is always the empty string. Reset must
// precede the first Ref; an Interner is reusable across tables so its map's
// storage survives.
type Interner struct {
	idx  map[string]uint32
	strs []string
	blob int // total bytes of strs
}

// Reset empties the table down to entry 0, the empty string.
func (in *Interner) Reset() {
	if in.idx == nil {
		in.idx = make(map[string]uint32, 64)
	} else {
		clear(in.idx)
	}
	in.idx[""] = 0
	in.strs = append(in.strs[:0], "")
	in.blob = 0
}

// ResetSized is Reset for a table about to take about n strings: the map and
// the list are allocated once at that size instead of growing as they fill.
func (in *Interner) ResetSized(n int) {
	in.idx = make(map[string]uint32, n+1)
	in.strs = make([]string, 0, n+1)
	in.Reset()
}

// Ref interns s, returning its table index.
func (in *Interner) Ref(s string) uint32 {
	if r, ok := in.idx[s]; ok {
		return r
	}
	r := uint32(len(in.strs))
	in.idx[s] = r
	in.strs = append(in.strs, s)
	in.blob += len(s)
	return r
}

// Strings returns the table in reference order; the slice is the Interner's
// own and is valid until the next Ref, Truncate or Reset.
func (in *Interner) Strings() []string { return in.strs }

// Truncate forgets every string interned after the table had n entries, for
// an encoder that must back out a record that did not fit.
func (in *Interner) Truncate(n int) {
	for _, s := range in.strs[n:] {
		delete(in.idx, s)
		in.blob -= len(s)
	}
	in.strs = in.strs[:n]
}

// TableSize is the number of bytes Buf.StringTable writes for the table.
func (in *Interner) TableSize() int { return 4*(len(in.strs)+1) + in.blob }

// Cursor is a bounds-checked read cursor over one buffer. Every error it
// returns starts with its label.
type Cursor struct {
	label string
	b     []byte
	off   int
}

// NewCursor returns a cursor at the start of b.
func NewCursor(label string, b []byte) *Cursor { return &Cursor{label: label, b: b} }

// Errorf builds an error carrying the cursor's label.
func (c *Cursor) Errorf(format string, args ...any) error {
	return fmt.Errorf(c.label+": "+format, args...)
}

// Len is the number of unread bytes.
func (c *Cursor) Len() int { return len(c.b) - c.off }

// Take returns the next n bytes, which alias the buffer. A decoder takes one
// whole fixed-size record and indexes into it, so the bounds check is paid
// per record, not per field.
func (c *Cursor) Take(n int) ([]byte, error) {
	if n < 0 || n > len(c.b)-c.off {
		return nil, c.truncated(n)
	}
	s := c.b[c.off : c.off+n : c.off+n]
	c.off += n
	return s, nil
}

func (c *Cursor) truncated(n int) error {
	return c.Errorf("truncated (need %d bytes at offset %d of %d)", n, c.off, len(c.b))
}

// takeColumn takes n fixed-size entries. Counts are checked by division, so
// no size arithmetic can overflow whatever the input claims.
func (c *Cursor) takeColumn(n, size int) ([]byte, error) {
	if n > math.MaxInt32 {
		return nil, c.Errorf("claims %d entries", n)
	}
	if n < 0 || n > c.Len()/size {
		return nil, c.truncated(n * size)
	}
	return c.Take(n * size)
}

func le32s[T int32 | uint32](c *Cursor, n int) ([]T, error) {
	raw, err := c.takeColumn(n, 4)
	if err != nil || n == 0 {
		return nil, err
	}
	out := make([]T, n)
	for i := range out {
		out[i] = T(binary.LittleEndian.Uint32(raw[i*4:]))
	}
	return out, nil
}

// I32s copies out a column of n int32s.
func (c *Cursor) I32s(n int) ([]int32, error) { return le32s[int32](c, n) }

// U32s copies out a column of n uint32s.
func (c *Cursor) U32s(n int) ([]uint32, error) { return le32s[uint32](c, n) }

// U64s copies out a column of n uint64s.
func (c *Cursor) U64s(n int) ([]uint64, error) {
	raw, err := c.takeColumn(n, 8)
	if err != nil || n == 0 {
		return nil, err
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(raw[i*8:])
	}
	return out, nil
}

// Strings reads a string table of count entries (the layout Buf.StringTable
// writes) and leaves the cursor just past the blob. The strings share one
// copy of the blob. Entry 0 must be the empty string.
func (c *Cursor) Strings(count int) ([]string, error) {
	if count < 1 || count >= c.Len()/4 {
		return nil, c.Errorf("string count %d outside [1, %d)", count, c.Len()/4)
	}
	offs, err := c.Take(4 * (count + 1))
	if err != nil {
		return nil, err
	}
	// Validate the whole offset array before slicing anything: pairwise
	// monotonicity alone would slice with a spiked upper bound before reaching
	// the entry where the sequence decreases again. The remaining bytes are an
	// upper bound on the blob; a caller whose table must fill its buffer says
	// so with Done.
	limit, prev := uint64(c.Len()), uint32(0)
	for i := 0; i <= count; i++ {
		off := binary.LittleEndian.Uint32(offs[4*i:])
		if off < prev || uint64(off) > limit {
			return nil, c.Errorf("string offset %d of %d is %d, outside [%d, %d]", i, count+1, off, prev, limit)
		}
		prev = off
	}
	if binary.LittleEndian.Uint32(offs[4:]) != 0 { // offs[0] <= offs[1] was checked above
		return nil, c.Errorf("string table entry 0 is not the empty string")
	}
	raw, err := c.Take(int(prev))
	if err != nil {
		return nil, err
	}
	blob := string(raw)
	strs := make([]string, count)
	lo := uint32(0)
	for i := range strs {
		hi := binary.LittleEndian.Uint32(offs[4*(i+1):])
		strs[i] = blob[lo:hi]
		lo = hi
	}
	return strs, nil
}

// Done reports trailing bytes as an error.
func (c *Cursor) Done() error {
	if c.off != len(c.b) {
		return c.Errorf("%d trailing bytes", len(c.b)-c.off)
	}
	return nil
}
