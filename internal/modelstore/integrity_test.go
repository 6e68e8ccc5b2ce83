package modelstore_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"privascope/internal/casestudy"
	"privascope/internal/modelstore"
)

// Section ids and table geometry of the format, as decode_test.go reads them.
const (
	secMeta, secEdges, secVectors, secStores = 1, 4, 5, 6
	numSections                              = 7
	sectionTableEnd                          = 64 + numSections*24
)

// TestDecodeRejectsBitFlipsEverywhere: one flipped bit anywhere — in the
// header, the section table or any section — fails Decode. Positions and bits
// are drawn from a fixed seed, a few in every region, so each section is hit
// however small it is.
func TestDecodeRejectsBitFlipsEverywhere(t *testing.T) {
	m, p := fixtureModel(t)
	valid := mustEncode(t, p)
	type region struct {
		name     string
		off, len int
	}
	regions := []region{{"header", 0, 64}, {"section table", 64, sectionTableEnd - 64}}
	for id := uint32(1); id <= numSections; id++ {
		off, length := sectionRange(t, valid, id)
		regions = append(regions, region{fmt.Sprint("section ", id), off, length})
	}
	rng := rand.New(rand.NewSource(38))
	for _, r := range regions {
		if r.len == 0 {
			t.Fatalf("%s is empty", r.name)
		}
		for i := 0; i < 16; i++ {
			at, bit := r.off+rng.Intn(r.len), byte(1)<<rng.Intn(8)
			data := append([]byte(nil), valid...)
			data[at] ^= bit
			if _, err := modelstore.Decode(data, m); err == nil {
				t.Errorf("%s: bit %#x flipped at byte %d accepted", r.name, bit, at)
			}
		}
	}
}

// TestDecodeRejectsNonCanonicalStoreIndex: the per-state store-set indexes
// must number the sets in first-occurrence order and use every one. An index
// that skips ahead, falls outside the table or leaves a set unused fails
// Decode even under a valid checksum.
func TestDecodeRejectsNonCanonicalStoreIndex(t *testing.T) {
	m, p := fixtureModel(t)
	valid := mustEncode(t, p)
	metaOff, _ := sectionRange(t, valid, secMeta)
	numStates := int(binary.LittleEndian.Uint32(valid[metaOff:]))
	numSets := int(binary.LittleEndian.Uint32(valid[metaOff+8*4:]))
	storesOff, _ := sectionRange(t, valid, secStores)
	indexOff := storesOff + 4*(numSets+1)
	setOf := func(d []byte, s int) int32 { return int32(binary.LittleEndian.Uint32(d[indexOff+4*s:])) }
	setTo := func(d []byte, s int, k int32) { binary.LittleEndian.PutUint32(d[indexOff+4*s:], uint32(k)) }
	if numSets < 3 {
		t.Fatalf("fixture has %d store sets, need at least 3", numSets)
	}
	firstOf := func(d []byte, k int32) int {
		for s := 0; s < numStates; s++ {
			if setOf(d, s) == k {
				return s
			}
		}
		t.Fatalf("no state holds store set %d", k)
		return -1
	}

	cases := map[string]func(d []byte){
		"out of order": func(d []byte) { setTo(d, firstOf(d, 1), 2) },
		"out of range": func(d []byte) { setTo(d, numStates-1, int32(numSets)) },
		"negative":     func(d []byte) { setTo(d, numStates-1, -1) },
		"set unused": func(d []byte) {
			for s := 0; s < numStates; s++ {
				if setOf(d, s) == int32(numSets-1) {
					setTo(d, s, 0)
				}
			}
		},
	}
	if _, err := modelstore.Decode(rechecksum(t, append([]byte(nil), valid...)), m); err != nil {
		t.Fatalf("resealed valid artifact rejected: %v", err)
	}
	for name, mutate := range cases {
		data := append([]byte(nil), valid...)
		mutate(data)
		_, err := modelstore.Decode(rechecksum(t, data), m)
		if err == nil || !strings.Contains(err.Error(), "store set") {
			t.Errorf("%s: Decode = %v, want a store-set index error", name, err)
		}
	}
}

// TestDecodeRejectsVectorPaddingBits: a state vector's last word holds bits
// past the vocabulary's variables. A checksum-valid artifact that sets one
// decodes to the same document, yet its vectors tell apart states that are
// equal, and an edge whose delta carries the bit falls into a class of its
// own. Decode rejects it, naming the state and the bit.
func TestDecodeRejectsVectorPaddingBits(t *testing.T) {
	m, p := fixtureModel(t)
	valid := mustEncode(t, p)
	numVars, wpv := p.Vocab.NumVariables(), p.Vocab.WordsPerVector()
	if numVars%64 == 0 {
		t.Fatalf("fixture vectors have %d variables in %d words: no padding bit to set", numVars, wpv)
	}
	vecOff, _ := sectionRange(t, valid, secVectors)
	numStates := p.Graph.StateCount()
	for _, tc := range []struct{ state, bit int }{{0, numVars}, {numStates / 2, wpv*64 - 1}, {numStates - 1, numVars + 1}} {
		data := append([]byte(nil), valid...)
		at := vecOff + ((tc.state+1)*wpv-1)*8
		word := binary.LittleEndian.Uint64(data[at:]) | 1<<(tc.bit%64)
		binary.LittleEndian.PutUint64(data[at:], word)
		_, err := modelstore.Decode(rechecksum(t, data), m)
		if want := fmt.Sprintf("state s%d sets vector bit %d,", tc.state, tc.bit); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("bit %d of state s%d: Decode = %v, want an error containing %q", tc.bit, tc.state, err, want)
		}
	}
}

// formerArtifacts are genuine artifacts of the case study in each earlier
// format version, with the SHA-256 TestArtifactBytesPinned held for them at
// that version: version 1 predates the store table and the CRC-32C, version
// 2 stored the state IDs and both CSR layouts.
var formerArtifacts = []struct {
	version int
	file    string
	sum     string
}{
	{1, "surgery-v1.artifact", "65f18a54dfc6ec3e4069ac460bcd651a01dbfe789ac99d90f4a0c6fee709ad9a"},
	{2, "surgery-v2.artifact", "d28d8e561851de31ff49f7b601e5cf5b3fc46da3cf89b3a64798bfeb027b0354"},
}

// TestFormerFormatIsUnknown: an artifact of an earlier format version is
// refused as an unknown version — not as a future one — so callers
// regenerate over it.
func TestFormerFormatIsUnknown(t *testing.T) {
	for _, former := range formerArtifacts {
		t.Run(fmt.Sprint("v", former.version), func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", former.file))
			if err != nil {
				t.Fatal(err)
			}
			if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != former.sum {
				t.Fatalf("testdata/%s is not the pinned version-%d artifact", former.file, former.version)
			}
			_, err = modelstore.Decode(data, casestudy.Surgery())
			if want := fmt.Sprint("unknown format version ", former.version); err == nil ||
				errors.Is(err, modelstore.ErrFutureVersion) || !strings.Contains(err.Error(), want) {
				t.Fatalf("Decode(v%d) = %v, want an unknown-version error", former.version, err)
			}
		})
	}
}

// TestDecodeRejectsSectionPastTheEnd: a section whose padded end lies past a
// file that is not a multiple of 8 bytes long leaves the next section's
// expected offset outside the artifact; that entry is an error, not a slice
// past the end.
func TestDecodeRejectsSectionPastTheEnd(t *testing.T) {
	m, p := fixtureModel(t)
	valid := mustEncode(t, p)
	data := make([]byte, len(valid)-3) // no spare capacity to slice into
	copy(data, valid)
	binary.LittleEndian.PutUint64(data[16:], uint64(len(data)))
	storesOff, _ := sectionRange(t, data, secStores)
	stores := data[64+(secStores-1)*24:]
	binary.LittleEndian.PutUint64(stores[16:], uint64(len(data)-1-storesOff))
	vocab := data[64+(numSections-1)*24:]
	binary.LittleEndian.PutUint64(vocab[8:], uint64(len(valid)))
	binary.LittleEndian.PutUint64(vocab[16:], 0)
	if _, err := modelstore.Decode(rechecksum(t, data), m); err == nil {
		t.Fatalf("a section table running past the artifact was accepted")
	}
}
