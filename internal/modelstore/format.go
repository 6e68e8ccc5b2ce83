// Package modelstore persists compiled privacy models: it serialises a
// generated core.PrivacyLTS — the dense state table, the interned label
// table, the forward and reverse CSR transition layouts, the per-state
// privacy vectors and datastore contents — into a single versioned binary
// artifact keyed by the model's dataflow.Fingerprint, and rebuilds the model
// from the artifact without re-running state-space exploration (and without
// re-rendering a label string beyond the one check per distinct label).
//
// The sections are the model's in-memory representation — everything indexed
// by dense state or transition number, one StateID -> index map per graph —
// so decoding validates them and hands them to lts.RestoreCompiled,
// lts.RestoreLTS and core.RestorePrivacyLTS as they are: the vector slab and
// the CSR arrays whole, the datastore contents as one map per distinct
// record window. A loaded model is the object generation builds, with its
// graph born compiled; nothing is rebuilt state by state.
//
// The format is canonical and integrity-checked: every multi-byte value is
// little-endian regardless of the writing host, encoding the same model
// twice produces byte-identical artifacts, and a whole-file SHA-256 rejects
// any corruption. Decoding is hardened against untrusted input — a malformed
// or truncated artifact always yields an error, never a panic and never a
// structurally inconsistent model: beyond the checksum, every index, offset
// and CSR bucket is validated before use (see lts.RestoreCompiled), and each
// decoded label is re-rendered and compared against its stored interned
// string.
//
// There is one decode path: Decode copies every section out of the buffer
// it is given, and Store.Load is os.ReadFile plus Decode, so a loaded model
// never references the artifact file again — it may be truncated, replaced or
// pruned under a running process. The buffer mechanics (cursor, string table,
// interner) are internal/wire's, shared with the cluster's frame formats.
//
// On top of the codec, Store is a registry directory: one artifact per
// fingerprint, written atomically (temp file + fsync + rename) so concurrent
// readers — including other processes — never observe a torn artifact.
package modelstore

import (
	"crypto/sha256"
	"fmt"
)

// magic identifies a privascope compiled-model artifact; the trailing byte
// leaves room for incompatible rewrites that should not even parse the
// header.
const magic = "PSCMODL\x01"

// FormatVersion is the artifact format written by Encode. Decode rejects
// artifacts written by a newer version with a clear error instead of
// misreading them.
const FormatVersion = 1

const (
	headerSize   = 64 // magic(8) + version(4) + sectionCount(4) + fileSize(8) + checksum(32) + reserved(8)
	checksumOff  = 24
	checksumSize = 32
	secEntrySize = 24 // id(4) + reserved(4) + offset(8) + length(8)
)

// Section identifiers. Every section is 8-byte aligned in the file and must
// appear exactly once.
const (
	secMeta    = 1 // counts, initial state, fingerprint
	secStrings = 2 // interned string table: offsets + blob (entry 0 is "")
	secStates  = 3 // state IDs as string refs, dense order
	secLabels  = 4 // distinct transition labels, column layout
	secEdges   = 5 // per-transition endpoints and label-pointer refs
	secCSR     = 6 // forward + reverse CSR layouts
	secVectors = 7 // flat per-state privacy-vector words
	secStores  = 8 // per-state datastore contents
	secVocab   = 9 // vocabulary actors/fields and generation warnings
)

// requiredSections lists every section id of format version 1, in file
// order.
var requiredSections = []uint32{
	secMeta, secStrings, secStates, secLabels, secEdges, secCSR, secVectors, secStores, secVocab,
}

// checksumOf computes the whole-file checksum: SHA-256 over the artifact
// with the checksum field itself zeroed.
func checksumOf(data []byte) [checksumSize]byte {
	h := sha256.New()
	h.Write(data[:checksumOff])
	var zero [checksumSize]byte
	h.Write(zero[:])
	h.Write(data[checksumOff+checksumSize:])
	var out [checksumSize]byte
	h.Sum(out[:0])
	return out
}

// Reseal recomputes the checksum of an artifact-shaped buffer in place and
// returns it. It exists for tests and fuzz corpora that deliberately mutate
// payload bytes and need the decoder's structural validation — not the
// checksum — to be what rejects the result.
func Reseal(data []byte) ([]byte, error) {
	if len(data) < headerSize {
		return nil, corruptf("%d bytes is shorter than the %d-byte header", len(data), headerSize)
	}
	sum := checksumOf(data)
	copy(data[checksumOff:], sum[:])
	return data, nil
}

// align8 rounds the offset up to the next multiple of 8.
func align8(off int) int { return (off + 7) &^ 7 }

// corruptLabel prefixes every decode error, whether corruptf or a section's
// wire.Cursor builds it, so callers can rely on the "modelstore:" prefix.
const corruptLabel = "modelstore: invalid artifact"

func corruptf(format string, args ...any) error {
	return fmt.Errorf(corruptLabel+": "+format, args...)
}
