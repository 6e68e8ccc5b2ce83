package wire

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// HeaderSize is the length of a frame's header.
const HeaderSize = 16

// Frame describes one length-prefixed frame format. PSEF and PSHO share the
// layout and differ in the record schema:
//
//	header (HeaderSize bytes):
//	  magic    [4]byte
//	  version  uint16   newer versions are rejected, not guessed
//	  reserved uint16   must be zero
//	  length   uint32   total frame length in bytes, header included
//	  count    uint32   number of records
//	scount   uint32   interned string count
//	strings  a string table of scount entries (see Buf.StringTable)
//	records  count records in the format's own schema, referring to the table
type Frame struct {
	Magic   string // 4 bytes
	Version uint16
	// MaxBytes and MaxCount bound a frame's declared length and record
	// count. ParseHeader rejects anything larger before a byte of the body is
	// read, so an adversarial prefix can never force a huge allocation.
	MaxBytes, MaxCount int
	// Label prefixes every decode error ("cluster: invalid frame").
	Label string
	// ErrNewer is wrapped when a structurally plausible frame was written by
	// a newer Version, so callers can tell it from corruption.
	ErrNewer error
}

// Size is the length of a frame carrying the interner's table and recsLen
// bytes of records.
func (f Frame) Size(in *Interner, recsLen int) int {
	return HeaderSize + 4 + in.TableSize() + recsLen
}

// Append appends a whole frame to dst: the header, the interner's table, then
// recs, the count records that were interned against it. Bounding Size by
// MaxBytes is the caller's job (a chunking encoder cuts earlier).
func (f Frame) Append(dst []byte, in *Interner, count int, recs []byte) []byte {
	total := f.Size(in, len(recs))
	w := Buf{B: append(slices.Grow(dst, total), f.Magic...)}
	w.U16(f.Version)
	w.U16(0)
	w.U32(uint32(total))
	w.U32(uint32(count))
	w.U32(uint32(len(in.strs)))
	w.StringTable(in.strs)
	return append(w.B, recs...)
}

// ParseHeader validates the header at the head of b and returns the frame's
// declared total length and record count. It does not relate total to len(b):
// a stream reader has only the header yet (ParseFrame is for a whole body).
func (f Frame) ParseHeader(b []byte) (total, count int, err error) {
	if len(b) < HeaderSize {
		return 0, 0, f.errorf("%d bytes is shorter than the %d-byte header", len(b), HeaderSize)
	}
	if string(b[:4]) != f.Magic {
		return 0, 0, f.errorf("bad magic %q", b[:4])
	}
	if version := binary.LittleEndian.Uint16(b[4:]); version > f.Version {
		return 0, 0, fmt.Errorf("%w: version %d, this build reads %d", f.ErrNewer, version, f.Version)
	} else if version != f.Version {
		return 0, 0, f.errorf("version %d", version)
	}
	if reserved := binary.LittleEndian.Uint16(b[6:]); reserved != 0 {
		return 0, 0, f.errorf("reserved field is %#x, want 0", reserved)
	}
	total = int(binary.LittleEndian.Uint32(b[8:]))
	count = int(binary.LittleEndian.Uint32(b[12:]))
	if total < HeaderSize || total > f.MaxBytes {
		return 0, 0, f.errorf("declared length %d outside [%d, %d]", total, HeaderSize, f.MaxBytes)
	}
	if count < 1 || count > f.MaxCount {
		return 0, 0, f.errorf("record count %d outside [1, %d]", count, f.MaxCount)
	}
	return total, count, nil
}

// ParseFrame is ParseHeader for a buffer that must hold exactly one frame.
func (f Frame) ParseFrame(b []byte) (count int, err error) {
	total, count, err := f.ParseHeader(b)
	if err == nil && total != len(b) {
		err = f.errorf("declared length %d, body is %d bytes", total, len(b))
	}
	return count, err
}

// Records reads the string table of a frame whose header ParseHeader
// accepted and returns it with a cursor over the records that follow.
func (f Frame) Records(frame []byte) (*Cursor, []string, error) {
	c := &Cursor{label: f.Label, b: frame, off: HeaderSize}
	scount, err := c.Take(4)
	if err != nil {
		return nil, nil, err
	}
	strs, err := c.Strings(int(binary.LittleEndian.Uint32(scount)))
	return c, strs, err
}

func (f Frame) errorf(format string, args ...any) error {
	return fmt.Errorf(f.Label+": "+format, args...)
}
