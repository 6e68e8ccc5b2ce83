package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"privascope/internal/lts"
	"privascope/internal/runtime"
)

// The state-handoff wire format: a length-prefixed binary snapshot frame in
// the PSEF idiom (little-endian regardless of host, canonical first-occurrence
// string interning, whole-offset-array validation before any slicing). One
// frame carries one chunk of the UserSnapshots moving to one node in a
// membership change (encodeHandoffChunk cuts them); a /handoff request body is
// exactly one frame.
//
//	header (16 bytes):
//	  magic    [4]byte  "PSHO"
//	  version  uint16   HandoffVersion; newer versions are rejected, not guessed
//	  reserved uint16   must be zero
//	  length   uint32   total frame length in bytes, header included
//	  count    uint32   number of user snapshots
//	strings:
//	  scount   uint32   interned string count (entry 0 is always "")
//	  offsets  [scount+1]uint32  monotone offsets into the blob
//	  blob     [...]byte         concatenated string bytes
//	snapshots (count records):
//	  user     uint32   string ref (must not be "")
//	  state    uint32   string ref (the LTS state ID)
//	  applied  uint64   cumulative events applied (must fit int64)
//	  alerts   uint64   cumulative alert cursor (must fit int64)
//	  defsens  float64  profile default sensitivity, in [0,1]
//	  nsvc     uint16   consented-service count
//	  nsens    uint16   explicit-sensitivity count
//	  services [nsvc]uint32            string refs, profile order
//	  sens     [nsens]{uint32,float64} field ref + σ(d), sorted by field name
//
// Sensitivities are a Go map on the profile, so the encoder sorts them by
// field name to keep encoding deterministic: encoding the same snapshot set
// twice is byte-identical, and decode∘encode is a fixpoint — the property
// FuzzHandoffDecode pins. The decoder validates every structural invariant
// (bounds, monotone offsets, sorted unique sensitivity fields, finite values
// in [0,1]) before building a snapshot; semantic validation against the model
// (does the state exist?) is the importing monitor's job.

// HandoffVersion is the wire format written by EncodeHandoff.
const HandoffVersion = 1

// handoffMagic identifies a privascope state-handoff frame.
const handoffMagic = "PSHO"

const (
	handoffHeaderSize = 16
	// snapshotFixedSize is the fixed part of one snapshot record: user(4)
	// state(4) applied(8) alerts(8) defsens(8) nsvc(2) nsens(2).
	snapshotFixedSize = 36
)

// MaxHandoffBytes bounds a single handoff frame, like MaxFrameBytes bounds an
// event frame: an adversarial length prefix can never force a huge
// allocation.
const MaxHandoffBytes = 8 << 20

// MaxHandoffUsers bounds the snapshots per frame; membership changes move
// more users in multiple frames.
const MaxHandoffUsers = 1 << 16

// handoffChunkBytes is the encoded size at which a membership change cuts a
// chunk: a sixteenth of the frame bound, which at the format's design ratio
// of MaxHandoffBytes/MaxHandoffUsers bytes per user is MaxHandoffUsers/16
// users. Small enough that the next chunk encodes while this one is on the
// wire and being imported and that no population can reach the per-frame
// bounds, large enough that the per-request cost is noise.
const handoffChunkBytes = MaxHandoffUsers / 16 * (MaxHandoffBytes / MaxHandoffUsers)

// ErrHandoffVersion marks a structurally plausible handoff frame written by a
// newer format version.
var ErrHandoffVersion = errors.New("cluster: handoff frame written by a newer format version")

// badHandoff builds a handoff decode error.
func badHandoff(format string, args ...any) error {
	return fmt.Errorf("cluster: invalid handoff frame: "+format, args...)
}

// EncodeHandoff encodes the snapshots as one handoff frame.
func EncodeHandoff(snaps []runtime.UserSnapshot) ([]byte, error) {
	if len(snaps) > MaxHandoffUsers {
		return nil, fmt.Errorf("cluster: %d snapshots exceed the %d-user handoff bound", len(snaps), MaxHandoffUsers)
	}
	frame, n, err := encodeHandoffChunk(snaps, MaxHandoffBytes)
	if err != nil {
		return nil, err
	}
	if n < len(snaps) {
		return nil, fmt.Errorf("cluster: only %d of %d snapshots fit the %d-byte handoff frame bound", n, len(snaps), MaxHandoffBytes)
	}
	return frame, nil
}

// encodeHandoffChunk encodes the longest prefix of snaps whose frame stays
// within maxBytes (and MaxHandoffUsers) and returns it with the prefix
// length. A first snapshot larger than maxBytes still goes, alone, as long as
// it fits MaxHandoffBytes: a chunk always makes progress.
func encodeHandoffChunk(snaps []runtime.UserSnapshot, maxBytes int) ([]byte, int, error) {
	if len(snaps) == 0 {
		return nil, 0, fmt.Errorf("cluster: refusing to encode an empty handoff frame")
	}
	enc := frameEncoder{intern: make(map[string]uint32, 64)}
	enc.ref("")

	// First pass: validate, intern in canonical first-occurrence order
	// (sensitivity fields sorted — map order must not leak into the bytes)
	// and size the frame, stopping before the snapshot that would overflow.
	// refs and sens keep each record's string refs and sensitivity values in
	// record order, so the second pass writes without another lookup.
	var (
		refs   []uint32
		sens   []float64
		fields []string
	)
	n, blobSize, recordsSize, total := 0, 0, 0, 0
	for i := range snaps {
		s := &snaps[i]
		if s.Profile.ID == "" {
			return nil, 0, fmt.Errorf("cluster: snapshot %d has no user ID", i)
		}
		if s.Applied < 0 || s.Alerts < 0 {
			return nil, 0, fmt.Errorf("cluster: snapshot of user %q has negative cursors (applied %d, alerts %d)",
				s.Profile.ID, s.Applied, s.Alerts)
		}
		if err := s.Profile.Validate(); err != nil {
			return nil, 0, fmt.Errorf("cluster: snapshot of user %q: %w", s.Profile.ID, err)
		}
		if len(s.Profile.ConsentedServices) > math.MaxUint16 || len(s.Profile.Sensitivities) > math.MaxUint16 {
			return nil, 0, fmt.Errorf("cluster: snapshot of user %q has too many services or sensitivities", s.Profile.ID)
		}
		strMark, refMark, sensMark := len(enc.strs), len(refs), len(sens)
		refs = append(refs, enc.ref(s.Profile.ID), enc.ref(string(s.State)))
		for _, svc := range s.Profile.ConsentedServices {
			refs = append(refs, enc.ref(svc))
		}
		fields = fields[:0]
		for f := range s.Profile.Sensitivities {
			fields = append(fields, f)
		}
		sort.Strings(fields)
		for _, f := range fields {
			refs = append(refs, enc.ref(f))
			sens = append(sens, s.Profile.Sensitivities[f])
		}
		newBlob := blobSize
		for _, str := range enc.strs[strMark:] {
			newBlob += len(str)
		}
		newRecords := recordsSize + snapshotFixedSize + 4*len(s.Profile.ConsentedServices) + 12*len(fields)
		newTotal := handoffHeaderSize + 4 + 4*(len(enc.strs)+1) + newBlob + newRecords
		if i == 0 && newTotal > MaxHandoffBytes {
			return nil, 0, fmt.Errorf("cluster: snapshot of user %q alone needs %d bytes, over the %d-byte handoff frame bound",
				s.Profile.ID, newTotal, MaxHandoffBytes)
		}
		if i > 0 && (newTotal > maxBytes || i == MaxHandoffUsers) {
			// Forget what only the overflowing snapshot contributed.
			for _, str := range enc.strs[strMark:] {
				delete(enc.intern, str)
			}
			enc.strs, refs, sens = enc.strs[:strMark], refs[:refMark], sens[:sensMark]
			break
		}
		n, blobSize, recordsSize, total = i+1, newBlob, newRecords, newTotal
	}

	b := make([]byte, total)
	copy(b, handoffMagic)
	binary.LittleEndian.PutUint16(b[4:], HandoffVersion)
	binary.LittleEndian.PutUint32(b[8:], uint32(total))
	binary.LittleEndian.PutUint32(b[12:], uint32(n))
	p := handoffHeaderSize
	binary.LittleEndian.PutUint32(b[p:], uint32(len(enc.strs)))
	p += 4
	off := uint32(0)
	for _, s := range enc.strs {
		binary.LittleEndian.PutUint32(b[p:], off)
		p += 4
		off += uint32(len(s))
	}
	binary.LittleEndian.PutUint32(b[p:], off)
	p += 4
	for _, s := range enc.strs {
		p += copy(b[p:], s)
	}
	for i := range snaps[:n] {
		s := &snaps[i]
		nsvc, nsens := len(s.Profile.ConsentedServices), len(s.Profile.Sensitivities)
		binary.LittleEndian.PutUint32(b[p:], refs[0])
		binary.LittleEndian.PutUint32(b[p+4:], refs[1])
		binary.LittleEndian.PutUint64(b[p+8:], uint64(s.Applied))
		binary.LittleEndian.PutUint64(b[p+16:], uint64(s.Alerts))
		binary.LittleEndian.PutUint64(b[p+24:], math.Float64bits(s.Profile.DefaultSensitivity))
		binary.LittleEndian.PutUint16(b[p+32:], uint16(nsvc))
		binary.LittleEndian.PutUint16(b[p+34:], uint16(nsens))
		p += snapshotFixedSize
		for _, ref := range refs[2 : 2+nsvc] {
			binary.LittleEndian.PutUint32(b[p:], ref)
			p += 4
		}
		for v, ref := range refs[2+nsvc : 2+nsvc+nsens] {
			binary.LittleEndian.PutUint32(b[p:], ref)
			binary.LittleEndian.PutUint64(b[p+4:], math.Float64bits(sens[v]))
			p += 12
		}
		refs, sens = refs[2+nsvc+nsens:], sens[nsens:]
	}
	if p != total {
		return nil, 0, fmt.Errorf("cluster: handoff encoder wrote %d of %d bytes", p, total)
	}
	return b, n, nil
}

// DecodeHandoff decodes exactly one handoff frame, rejecting trailing bytes.
// Decoded profiles own their storage (nothing aliases the input).
func DecodeHandoff(data []byte) ([]runtime.UserSnapshot, error) {
	if len(data) < handoffHeaderSize {
		return nil, badHandoff("%d bytes is shorter than the %d-byte header", len(data), handoffHeaderSize)
	}
	if string(data[:4]) != handoffMagic {
		return nil, badHandoff("bad magic %q", data[:4])
	}
	version := binary.LittleEndian.Uint16(data[4:])
	if version != HandoffVersion {
		if version > HandoffVersion {
			return nil, fmt.Errorf("%w: version %d, this build reads %d", ErrHandoffVersion, version, HandoffVersion)
		}
		return nil, badHandoff("version %d", version)
	}
	if reserved := binary.LittleEndian.Uint16(data[6:]); reserved != 0 {
		return nil, badHandoff("reserved field is %#x, want 0", reserved)
	}
	total := int(binary.LittleEndian.Uint32(data[8:]))
	count := int(binary.LittleEndian.Uint32(data[12:]))
	if total > MaxHandoffBytes {
		return nil, badHandoff("declared length %d exceeds the %d-byte bound", total, MaxHandoffBytes)
	}
	if total != len(data) {
		return nil, badHandoff("declared length %d, body is %d bytes", total, len(data))
	}
	if count == 0 || count > MaxHandoffUsers {
		return nil, badHandoff("snapshot count %d outside [1, %d]", count, MaxHandoffUsers)
	}
	b := data
	p := handoffHeaderSize

	// String table: validate the whole offset array before slicing the blob.
	if total-p < 4 {
		return nil, badHandoff("truncated string table")
	}
	scount := int(binary.LittleEndian.Uint32(b[p:]))
	p += 4
	if scount < 1 || scount > total/4 {
		return nil, badHandoff("string count %d", scount)
	}
	if total-p < 4*(scount+1) {
		return nil, badHandoff("truncated string offsets")
	}
	offsets := make([]uint32, scount+1)
	for i := range offsets {
		offsets[i] = binary.LittleEndian.Uint32(b[p:])
		p += 4
	}
	blobLen := total - p // upper bound: records still follow
	prev := uint32(0)
	for i, off := range offsets {
		if off < prev || int(off) > blobLen {
			return nil, badHandoff("string offset %d of %d is %d, outside [%d, %d]", i, scount+1, off, prev, blobLen)
		}
		prev = off
	}
	if offsets[0] != 0 || offsets[1] != 0 {
		return nil, badHandoff("string table entry 0 is not the empty string")
	}
	blob := string(b[p : p+int(offsets[scount])])
	p += int(offsets[scount])
	strs := make([]string, scount)
	for i := 0; i < scount; i++ {
		strs[i] = blob[offsets[i]:offsets[i+1]]
	}

	snaps := make([]runtime.UserSnapshot, count)
	str := func(ref uint32, what string, record int) (string, error) {
		if int(ref) >= scount {
			return "", badHandoff("snapshot %d %s ref %d out of range", record, what, ref)
		}
		return strs[ref], nil
	}
	for i := 0; i < count; i++ {
		if total-p < snapshotFixedSize {
			return nil, badHandoff("truncated snapshot %d of %d", i, count)
		}
		s := &snaps[i]
		var err error
		if s.Profile.ID, err = str(binary.LittleEndian.Uint32(b[p:]), "user", i); err != nil {
			return nil, err
		}
		if s.Profile.ID == "" {
			return nil, badHandoff("snapshot %d has an empty user ID", i)
		}
		var state string
		if state, err = str(binary.LittleEndian.Uint32(b[p+4:]), "state", i); err != nil {
			return nil, err
		}
		s.State = lts.StateID(state)
		applied := binary.LittleEndian.Uint64(b[p+8:])
		alerts := binary.LittleEndian.Uint64(b[p+16:])
		if applied > math.MaxInt64 || alerts > math.MaxInt64 {
			return nil, badHandoff("snapshot %d cursors overflow int64", i)
		}
		s.Applied, s.Alerts = int64(applied), int64(alerts)
		defsens := math.Float64frombits(binary.LittleEndian.Uint64(b[p+24:]))
		if !(defsens >= 0 && defsens <= 1) { // rejects NaN too
			return nil, badHandoff("snapshot %d default sensitivity %v outside [0,1]", i, defsens)
		}
		s.Profile.DefaultSensitivity = defsens
		nsvc := int(binary.LittleEndian.Uint16(b[p+32:]))
		nsens := int(binary.LittleEndian.Uint16(b[p+34:]))
		p += snapshotFixedSize
		if total-p < 4*nsvc+12*nsens {
			return nil, badHandoff("truncated service or sensitivity list of snapshot %d", i)
		}
		if nsvc > 0 {
			s.Profile.ConsentedServices = make([]string, nsvc)
			for v := 0; v < nsvc; v++ {
				if s.Profile.ConsentedServices[v], err = str(binary.LittleEndian.Uint32(b[p:]), "service", i); err != nil {
					return nil, err
				}
				p += 4
			}
		}
		if nsens > 0 {
			s.Profile.Sensitivities = make(map[string]float64, nsens)
			prevField := ""
			for v := 0; v < nsens; v++ {
				field, err := str(binary.LittleEndian.Uint32(b[p:]), "sensitivity field", i)
				if err != nil {
					return nil, err
				}
				if v > 0 && field <= prevField {
					return nil, badHandoff("snapshot %d sensitivity fields not sorted unique (%q after %q)", i, field, prevField)
				}
				prevField = field
				value := math.Float64frombits(binary.LittleEndian.Uint64(b[p+4:]))
				if !(value >= 0 && value <= 1) {
					return nil, badHandoff("snapshot %d sensitivity of %q is %v, outside [0,1]", i, field, value)
				}
				s.Profile.Sensitivities[field] = value
				p += 12
			}
		}
	}
	if p != total {
		return nil, badHandoff("%d bytes of padding after the last snapshot", total-p)
	}
	return snaps, nil
}
