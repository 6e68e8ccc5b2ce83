package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"sort"

	"privascope/internal/lts"
	"privascope/internal/risk"
	"privascope/internal/runtime"
	"privascope/internal/wire"
)

// The state-handoff wire format: a length-prefixed binary snapshot frame on
// the same internal/wire substrate as PSEF (little-endian regardless of host,
// canonical first-occurrence string interning, a header and string table
// validated whole before any slicing). One frame carries one chunk of the
// UserSnapshots going to one node — moved by a membership change, or fresh
// from Router.Register, with no state yet — (encodeHandoffChunk cuts them); a
// /handoff request body is exactly one frame.
//
//	header and string table (wire.Frame): magic "PSHO", HandoffVersion
//	snapshots (count records):
//	  user     uint32   string ref (must not be "")
//	  state    uint32   string ref (the LTS state ID; "" in a registration)
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
// (bounds, sorted unique sensitivity fields, finite values in [0,1]) before
// building a snapshot; semantic validation against the model (does the state
// exist?) is the importing monitor's job.
//
// A profile's record tail — defsens through sens — is a function of the
// profile and the strings interned before it, so a chunk's users that repeat
// a profile repeat its tail byte for byte. The encoder copies the previous
// tail when a snapshot repeats the previous snapshot's profile record, so a
// run of users of one profile costs one tail; interleaved profiles cost what
// distinct ones do. The decoder builds each distinct tail's profile once and
// shares its slice and map with every snapshot repeating it.

// HandoffVersion is the wire format written by EncodeHandoff.
const HandoffVersion = 1

const (
	handoffHeaderSize = wire.HeaderSize
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

// handoffChunkBytes is the encoded size at which a membership change (or a
// registration) cuts a chunk: a sixteenth of the frame bound, which at the format's design ratio
// of MaxHandoffBytes/MaxHandoffUsers bytes per user is MaxHandoffUsers/16
// users. Small enough that the next chunk encodes while this one is on the
// wire and being imported and that no population can reach the per-frame
// bounds, large enough that the per-request cost is noise.
const handoffChunkBytes = MaxHandoffUsers / 16 * (MaxHandoffBytes / MaxHandoffUsers)

// ErrHandoffVersion marks a structurally plausible handoff frame written by a
// newer format version.
var ErrHandoffVersion = errors.New("cluster: handoff frame written by a newer format version")

// handoffFrame is the PSHO framing.
var handoffFrame = wire.Frame{
	Magic: "PSHO", Version: HandoffVersion,
	MaxBytes: MaxHandoffBytes, MaxCount: MaxHandoffUsers,
	Label: "cluster: invalid handoff frame", ErrNewer: ErrHandoffVersion,
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
	var in wire.Interner

	// The records go to scratch first, as in appendFrame: interning them in
	// canonical first-occurrence order (sensitivity fields sorted — map order
	// must not leak into the bytes) is what completes the string table. The
	// scratch is sized once for the records that can fit maxBytes (growing it
	// by doubling cost more than the encoding), and the loop stops before the
	// snapshot that would overflow the frame.
	recsCap, users := 0, 0
	for ; users < len(snaps) && recsCap < maxBytes; users++ {
		p := &snaps[users].Profile
		recsCap += snapshotFixedSize + 4*len(p.ConsentedServices) + 12*len(p.Sensitivities)
	}
	in.ResetSized(users + 16) // a user ID each, a state and a profile's names
	w := wire.Buf{B: make([]byte, 0, recsCap)}
	var fields []string
	var tail tailSpan // the last profile record tail written
	n := 0
	for i := range snaps {
		s := &snaps[i]
		if s.Profile.ID == "" {
			return nil, 0, fmt.Errorf("cluster: snapshot %d has no user ID", i)
		}
		if s.Applied < 0 || s.Alerts < 0 {
			return nil, 0, fmt.Errorf("cluster: snapshot of user %q has negative cursors (applied %d, alerts %d)",
				s.Profile.ID, s.Applied, s.Alerts)
		}
		strMark, recMark := len(in.Strings()), len(w.B)
		w.U32(in.Ref(s.Profile.ID))
		w.U32(in.Ref(string(s.State)))
		w.U64(uint64(s.Applied))
		w.U64(uint64(s.Alerts))
		if i > 0 && risk.SameRecord(&snaps[tail.snap].Profile, &s.Profile) {
			w.B = append(w.B, w.B[tail.from:tail.to]...)
		} else {
			// A record is validated once: its repeats are equal to the bit.
			if err := s.Profile.Validate(); err != nil {
				return nil, 0, fmt.Errorf("cluster: snapshot of user %q: %w", s.Profile.ID, err)
			}
			if len(s.Profile.ConsentedServices) > math.MaxUint16 || len(s.Profile.Sensitivities) > math.MaxUint16 {
				return nil, 0, fmt.Errorf("cluster: snapshot of user %q has too many services or sensitivities", s.Profile.ID)
			}
			tail = tailSpan{i, len(w.B), 0}
			w.F64(s.Profile.DefaultSensitivity)
			w.U16(uint16(len(s.Profile.ConsentedServices)))
			w.U16(uint16(len(s.Profile.Sensitivities)))
			for _, svc := range s.Profile.ConsentedServices {
				w.U32(in.Ref(svc))
			}
			fields = fields[:0]
			for f := range s.Profile.Sensitivities {
				fields = append(fields, f)
			}
			sort.Strings(fields)
			for _, f := range fields {
				w.U32(in.Ref(f))
				w.F64(s.Profile.Sensitivities[f])
			}
			tail.to = len(w.B)
		}
		newTotal := handoffFrame.Size(&in, len(w.B))
		if i == 0 && newTotal > MaxHandoffBytes {
			return nil, 0, fmt.Errorf("cluster: snapshot of user %q alone needs %d bytes, over the %d-byte handoff frame bound",
				s.Profile.ID, newTotal, MaxHandoffBytes)
		}
		if i > 0 && (newTotal > maxBytes || i == MaxHandoffUsers) {
			// Forget what only the overflowing snapshot contributed.
			in.Truncate(strMark)
			w.B = w.B[:recMark]
			break
		}
		n = i + 1
	}
	return handoffFrame.Append(nil, &in, n, w.B), n, nil
}

// tailSpan is where a snapshot's profile record tail lies in a frame's bytes.
type tailSpan struct{ snap, from, to int }

var tailSeed = maphash.MakeSeed()

// maxSharedRecords is how many distinct profile records DecodeHandoff
// remembers to share, so a frame of users with profiles of their own does not
// grow a memo it never hits.
const maxSharedRecords = 64

// DecodeHandoff decodes exactly one handoff frame, rejecting trailing bytes.
// Decoded profiles own their storage (nothing aliases the input); snapshots
// that repeat one of the frame's first maxSharedRecords profile records share
// its slice and map.
func DecodeHandoff(data []byte) ([]runtime.UserSnapshot, error) {
	count, err := handoffFrame.ParseFrame(data)
	if err != nil {
		return nil, err
	}
	c, strs, err := handoffFrame.Records(data)
	if err != nil {
		return nil, err
	}

	snaps := make([]runtime.UserSnapshot, count)
	seen := make(map[uint64]tailSpan) // the first maxSharedRecords records' tails, by hash
	str := func(raw []byte, what string, record int) (string, error) {
		ref := binary.LittleEndian.Uint32(raw)
		if int64(ref) >= int64(len(strs)) {
			return "", c.Errorf("snapshot %d %s ref %d out of range", record, what, ref)
		}
		return strs[ref], nil
	}
	for i := range snaps {
		rec, err := c.Take(snapshotFixedSize)
		if err != nil {
			return nil, err
		}
		s := &snaps[i]
		if s.Profile.ID, err = str(rec, "user", i); err != nil {
			return nil, err
		}
		if s.Profile.ID == "" {
			return nil, c.Errorf("snapshot %d has an empty user ID", i)
		}
		state, err := str(rec[4:], "state", i)
		if err != nil {
			return nil, err
		}
		s.State = lts.StateID(state)
		applied := binary.LittleEndian.Uint64(rec[8:])
		alerts := binary.LittleEndian.Uint64(rec[16:])
		if applied > math.MaxInt64 || alerts > math.MaxInt64 {
			return nil, c.Errorf("snapshot %d cursors overflow int64", i)
		}
		s.Applied, s.Alerts = int64(applied), int64(alerts)
		defsens := math.Float64frombits(binary.LittleEndian.Uint64(rec[24:]))
		if !(defsens >= 0 && defsens <= 1) { // rejects NaN too
			return nil, c.Errorf("snapshot %d default sensitivity %v outside [0,1]", i, defsens)
		}
		s.Profile.DefaultSensitivity = defsens
		nsvc := int(binary.LittleEndian.Uint16(rec[32:]))
		nsens := int(binary.LittleEndian.Uint16(rec[34:]))
		lists, err := c.Take(4*nsvc + 12*nsens)
		if err != nil {
			return nil, err
		}
		end := len(data) - c.Len()
		start := end - len(rec[24:]) - len(lists) // the tail is rec[24:] and lists, read in one piece
		h := maphash.Bytes(tailSeed, data[start:end])
		if t, ok := seen[h]; ok && bytes.Equal(data[t.from:t.to], data[start:end]) {
			p := &snaps[t.snap].Profile
			s.Profile.ConsentedServices, s.Profile.Sensitivities = p.ConsentedServices, p.Sensitivities
			continue
		}
		if len(seen) < maxSharedRecords {
			seen[h] = tailSpan{i, start, end}
		}
		if nsvc > 0 {
			s.Profile.ConsentedServices = make([]string, nsvc)
			for v := range s.Profile.ConsentedServices {
				if s.Profile.ConsentedServices[v], err = str(lists[4*v:], "service", i); err != nil {
					return nil, err
				}
			}
		}
		if nsens > 0 {
			s.Profile.Sensitivities = make(map[string]float64, nsens)
			prevField := ""
			for v, pair := 0, lists[4*nsvc:]; v < nsens; v, pair = v+1, pair[12:] {
				field, err := str(pair, "sensitivity field", i)
				if err != nil {
					return nil, err
				}
				if v > 0 && field <= prevField {
					return nil, c.Errorf("snapshot %d sensitivity fields not sorted unique (%q after %q)", i, field, prevField)
				}
				prevField = field
				value := math.Float64frombits(binary.LittleEndian.Uint64(pair[4:]))
				if !(value >= 0 && value <= 1) {
					return nil, c.Errorf("snapshot %d sensitivity of %q is %v, outside [0,1]", i, field, value)
				}
				s.Profile.Sensitivities[field] = value
			}
		}
	}
	if err := c.Done(); err != nil {
		return nil, err
	}
	return snaps, nil
}
