// Package modelstore persists compiled privacy models: it serialises a
// generated core.PrivacyLTS into a single versioned binary artifact keyed by
// the model's dataflow.Fingerprint, and rebuilds the model from the artifact
// without re-running state-space exploration (and without re-rendering a
// label string beyond the one check per distinct label).
//
// An artifact stores what generation decided and nothing derived from it:
// the state count and initial state, the graph's label table, the edges
// with each one's index into it, the per-state privacy vectors and the store
// table (its distinct store sets in first-occurrence order plus one set
// index per state). State IDs and the CSR layouts are functions of the state
// count and the edges; lts.RestoreCompiled rebuilds them as lts.FromParts
// does after generation and takes the label table as stored, so a loaded
// model is the object generation builds.
//
// The format is canonical and integrity-checked: every multi-byte value is
// little-endian regardless of the writing host, encoding the same model
// twice produces byte-identical artifacts, and a whole-file CRC-32C
// (Castagnoli) rejects corruption — an artifact carries its own checksum, so
// it guards against damage, not an attacker. Decoding is hardened against
// untrusted input: a malformed or truncated artifact always yields an error,
// never a panic and never an inconsistent model — every count, offset,
// endpoint and label index is range-checked, the label table must be in
// first-occurrence order with every record referenced, and each decoded
// label is re-rendered against its stored string. An older format version
// is rejected like corruption, which callers treat as a cache miss.
//
// Decode copies every section out of the buffer it is given, and Store.Load
// is os.ReadFile plus Decode, so a loaded model never references the artifact
// file again. The buffer mechanics (cursor, string table, interner) are
// internal/wire's, shared with the cluster's frame formats.
//
// On top of the codec, Store is a registry directory: one artifact per key,
// written atomically (temp file + fsync + rename) so concurrent readers —
// including other processes — never observe a torn artifact.
package modelstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// magic identifies a privascope compiled-model artifact; the trailing byte
// leaves room for incompatible rewrites that should not even parse the
// header.
const magic = "PSCMODL\x01"

// FormatVersion is the artifact format written by Encode. Decode rejects
// artifacts written by a newer version with ErrFutureVersion instead of
// misreading them, and an older one as an unknown version.
const FormatVersion = 3

const (
	headerSize   = 64 // magic(8) + version(4) + sectionCount(4) + fileSize(8) + checksum(32: CRC-32C, then zeros) + reserved(8)
	checksumOff  = 24
	checksumSize = 32
	secEntrySize = 24 // id(4) + reserved(4) + offset(8) + length(8)
)

// Section identifiers. Every section is 8-byte aligned in the file and must
// appear exactly once.
const (
	secMeta    = 1 // counts, initial state, fingerprint
	secStrings = 2 // interned string table: offsets + blob (entry 0 is "")
	secLabels  = 3 // distinct transition labels, column layout
	secEdges   = 4 // per-transition endpoints and label-table indexes (-1: nil)
	secVectors = 5 // flat per-state privacy-vector words
	secStores  = 6 // distinct store sets' record offsets, per-state set index, records
	secVocab   = 7 // vocabulary actors/fields and generation warnings
)

// requiredSections lists every section id of the format, in file order.
var requiredSections = []uint32{
	secMeta, secStrings, secLabels, secEdges, secVectors, secStores, secVocab,
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksumOf computes the header's checksum field: the CRC-32C of the
// artifact without that field, little-endian in its first 4 bytes, zeros
// after.
func checksumOf(data []byte) (field [checksumSize]byte) {
	crc := crc32.Checksum(data[:checksumOff], castagnoli)
	crc = crc32.Update(crc, castagnoli, data[checksumOff+checksumSize:])
	binary.LittleEndian.PutUint32(field[:], crc)
	return field
}

// checkStoreIndex reports whether storeOf indexes a table of numSets store
// sets canonically: each state holds a set already seen or the next one, and
// every set is used.
func checkStoreIndex(storeOf []int32, numSets int) error {
	next := int32(0)
	for s, k := range storeOf {
		if k < 0 || k > next || int(k) >= numSets {
			return fmt.Errorf("state %d holds store set %d of %d, %d seen so far", s, k, numSets, next)
		}
		if k == next {
			next++
		}
	}
	if int(next) != numSets {
		return fmt.Errorf("states use %d of %d store sets", next, numSets)
	}
	return nil
}

// align8 rounds the offset up to the next multiple of 8.
func align8(off int) int { return (off + 7) &^ 7 }

// corruptLabel prefixes every decode error, whether corruptf or a section's
// wire.Cursor builds it, so callers can rely on the "modelstore:" prefix.
const corruptLabel = "modelstore: invalid artifact"

func corruptf(format string, args ...any) error {
	return fmt.Errorf(corruptLabel+": "+format, args...)
}
