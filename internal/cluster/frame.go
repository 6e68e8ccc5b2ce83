package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"privascope/internal/core"
	"privascope/internal/service"
	"privascope/internal/wire"
)

// The ingest wire format: a length-prefixed binary event frame, little-endian
// regardless of host. One frame carries one batch of service.Events; an ingest
// request body is a stream of frames. The header, the string table and their
// hostile-input validation are internal/wire's; this file is the schema.
//
//	header and string table (wire.Frame): magic "PSEF", FrameVersion
//	events (count records):
//	  seq      int64
//	  time     int64   UnixNano; 0 encodes the zero time
//	  actor, datastore, service, purpose, user  uint32  string refs
//	  action   uint8   core.Action (must be valid)
//	  denied   uint8   0 or 1
//	  nfields  uint16
//	  fields   [nfields]uint32   string refs
//
// Strings are interned in canonical first-occurrence order, so encoding the
// same batch twice is byte-identical. The decoder is hardened against
// untrusted input: every string ref is bounds-checked against a table wire
// validated whole, and any malformed frame yields an error, never a panic.

// FrameVersion is the wire format written by EncodeFrame. DecodeFrame rejects
// frames from a newer version with ErrFrameVersion instead of misreading
// them.
const FrameVersion = 1

const (
	frameHeaderSize = wire.HeaderSize
	// eventFixedSize is the fixed part of one event record: seq(8) time(8)
	// actor(4) datastore(4) service(4) purpose(4) user(4) action(1) denied(1)
	// nfields(2).
	eventFixedSize = 40
)

// MaxFrameBytes bounds a single frame; the decoder rejects anything whose
// declared length exceeds it before reading further, so an adversarial
// length prefix can never force a huge allocation.
const MaxFrameBytes = 8 << 20

// MaxFrameEvents bounds the events per frame.
const MaxFrameEvents = 1 << 16

// maxEventFields bounds the fields of one event: the record stores their
// count as a uint16.
const maxEventFields = math.MaxUint16

// ErrFrameVersion marks a structurally plausible frame written by a newer
// format version.
var ErrFrameVersion = errors.New("cluster: frame written by a newer format version")

// eventFrame is the PSEF framing; every decode error carries its "cluster:"
// prefix.
var eventFrame = wire.Frame{
	Magic: "PSEF", Version: FrameVersion,
	MaxBytes: MaxFrameBytes, MaxCount: MaxFrameEvents,
	Label: "cluster: invalid frame", ErrNewer: ErrFrameVersion,
}

// frameEncoder holds the reusable state of one frame writer: the interner and
// the scratch the event records are written to. The zero value is ready; a
// Router keeps one per node so their storage survives across flushes.
type frameEncoder struct {
	in   wire.Interner
	recs wire.Buf
}

// appendFrame encodes one frame onto dst.
func (e *frameEncoder) appendFrame(dst []byte, events []service.Event) ([]byte, error) {
	if len(events) == 0 {
		return nil, fmt.Errorf("cluster: refusing to encode an empty frame")
	}
	if len(events) > MaxFrameEvents {
		return nil, fmt.Errorf("cluster: %d events exceed the %d-event frame bound", len(events), MaxFrameEvents)
	}
	e.in.Reset()

	// The records go to scratch first: interning them in canonical
	// first-occurrence order is what completes the string table, and the table
	// precedes them in the frame.
	recsSize := 0
	for i := range events {
		recsSize += eventFixedSize + 4*len(events[i].Fields)
	}
	w := wire.Buf{B: slices.Grow(e.recs.B[:0], recsSize)}
	for i := range events {
		ev := &events[i]
		if len(ev.Fields) > maxEventFields {
			return nil, fmt.Errorf("cluster: event %d has %d fields, exceeding the %d-field bound", i, len(ev.Fields), maxEventFields)
		}
		if !ev.Action.Valid() {
			return nil, fmt.Errorf("cluster: event %d has invalid action %d", i, ev.Action)
		}
		w.U64(uint64(ev.Seq))
		var nanos int64
		if !ev.Time.IsZero() {
			nanos = ev.Time.UnixNano()
		}
		w.U64(uint64(nanos))
		w.U32(e.in.Ref(ev.Actor))
		w.U32(e.in.Ref(ev.Datastore))
		w.U32(e.in.Ref(ev.Service))
		w.U32(e.in.Ref(ev.Purpose))
		w.U32(e.in.Ref(ev.UserID))
		w.U8(byte(ev.Action))
		denied := byte(0)
		if ev.Denied {
			denied = 1
		}
		w.U8(denied)
		w.U16(uint16(len(ev.Fields)))
		for _, f := range ev.Fields {
			w.U32(e.in.Ref(f))
		}
	}
	e.recs = w
	if total := eventFrame.Size(&e.in, len(w.B)); total > MaxFrameBytes {
		return nil, fmt.Errorf("cluster: frame of %d bytes exceeds the %d-byte bound", total, MaxFrameBytes)
	}
	return eventFrame.Append(dst, &e.in, len(events), w.B), nil
}

// EncodeFrame encodes one batch of events as a single frame.
func EncodeFrame(events []service.Event) ([]byte, error) {
	var e frameEncoder
	return e.appendFrame(nil, events)
}

// DecodeFrame decodes exactly one frame, rejecting trailing bytes. Time
// round-trips at UnixNano resolution (the zero time stays zero); decoded
// strings alias one per-frame copy of the blob, so events share storage.
func DecodeFrame(data []byte) ([]service.Event, error) {
	count, err := eventFrame.ParseFrame(data)
	if err != nil {
		return nil, err
	}
	return decodeEvents(data, count)
}

// decodeEvents decodes the body of a frame whose header declared len(frame)
// bytes and count events. The events share per-frame storage — their strings
// are slices of one copy of the frame's string blob, their Fields slices of
// arenas of up to 1,024 strings — so whoever retains one event beyond the
// batch copies it (runtime.Monitor does for an alert), or keeps all of it.
func decodeEvents(frame []byte, count int) ([]service.Event, error) {
	c, strs, err := eventFrame.Records(frame)
	if err != nil {
		return nil, err
	}

	// Events: every string ref bounds-checked against the table.
	events := make([]service.Event, count)
	var fieldArena []string
	for i := range events {
		rec, err := c.Take(eventFixedSize)
		if err != nil {
			return nil, err
		}
		ev := &events[i]
		ev.Seq = int64(binary.LittleEndian.Uint64(rec))
		if nanos := int64(binary.LittleEndian.Uint64(rec[8:])); nanos != 0 {
			ev.Time = time.Unix(0, nanos).UTC()
		}
		refs := [5]uint32{}
		for r := range refs {
			refs[r] = binary.LittleEndian.Uint32(rec[16+4*r:])
			if int64(refs[r]) >= int64(len(strs)) {
				return nil, c.Errorf("event %d string ref %d out of range", i, refs[r])
			}
		}
		ev.Actor, ev.Datastore, ev.Service, ev.Purpose, ev.UserID =
			strs[refs[0]], strs[refs[1]], strs[refs[2]], strs[refs[3]], strs[refs[4]]
		action := core.Action(rec[36])
		if !action.Valid() {
			return nil, c.Errorf("event %d has invalid action %d", i, action)
		}
		ev.Action = action
		switch rec[37] {
		case 0:
		case 1:
			ev.Denied = true
		default:
			return nil, c.Errorf("event %d denied flag is %d", i, rec[37])
		}
		nfields := int(binary.LittleEndian.Uint16(rec[38:]))
		if nfields == 0 {
			continue
		}
		raw, err := c.Take(4 * nfields)
		if err != nil {
			return nil, err
		}
		if cap(fieldArena)-len(fieldArena) < nfields {
			fieldArena = make([]string, 0, max(4*nfields, 1024))
		}
		start := len(fieldArena)
		for f := 0; f < nfields; f++ {
			ref := binary.LittleEndian.Uint32(raw[4*f:])
			if int64(ref) >= int64(len(strs)) {
				return nil, c.Errorf("event %d field ref %d out of range", i, ref)
			}
			fieldArena = append(fieldArena, strs[ref])
		}
		ev.Fields = fieldArena[start:len(fieldArena):len(fieldArena)]
	}
	if err := c.Done(); err != nil {
		return nil, err
	}
	return events, nil
}

// FrameReader decodes a stream of frames from an io.Reader (an ingest request
// body). The read buffer is reused across frames, but decoded events never
// alias it — the decoder copies the string blob once per frame — so a batch
// may be retained after the next Read call. A batch's events share
// that copy (see decodeEvents): retaining one of them retains the frame's
// storage, so a long-lived holder of single events copies what it keeps.
type FrameReader struct {
	r   io.Reader
	buf []byte
}

// NewFrameReader returns a reader decoding frames from r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r}
}

// Read decodes the next frame. It returns io.EOF at a clean end of stream;
// a stream truncated mid-frame returns io.ErrUnexpectedEOF.
func (fr *FrameReader) Read() ([]service.Event, error) {
	if cap(fr.buf) < frameHeaderSize {
		fr.buf = make([]byte, frameHeaderSize, 64<<10)
	}
	header := fr.buf[:frameHeaderSize]
	if _, err := io.ReadFull(fr.r, header); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, err
	}
	total, count, err := eventFrame.ParseHeader(header)
	if err != nil {
		return nil, err
	}
	if cap(fr.buf) < total {
		fr.buf = make([]byte, total)
		copy(fr.buf, header)
	}
	frame := fr.buf[:total]
	if _, err := io.ReadFull(fr.r, frame[frameHeaderSize:]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return decodeEvents(frame, count)
}
