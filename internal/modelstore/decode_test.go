package modelstore_test

import (
	"encoding/binary"
	"testing"

	"privascope/internal/modelstore"
)

// sectionRange locates a section's payload offset and length in a v1
// artifact via the section table (the header layout is part of the frozen
// format, so reading it directly here cannot go stale without a version
// bump).
func sectionRange(t *testing.T, data []byte, id uint32) (off, length int) {
	t.Helper()
	const headerSize, entrySize, numSections = 64, 24, 9
	for i := 0; i < numSections; i++ {
		e := data[headerSize+i*entrySize:]
		if binary.LittleEndian.Uint32(e) == id {
			return int(binary.LittleEndian.Uint64(e[8:])), int(binary.LittleEndian.Uint64(e[16:]))
		}
	}
	t.Fatalf("artifact has no section %d", id)
	return 0, 0
}

// TestDecodeRejectsOffsetSpikes covers two checksum-valid malformed shapes
// that once panicked: an offset array whose intermediate entry spikes past
// the section payload still satisfies the first-entry and last-entry checks,
// and pairwise monotonicity alone only notices the decrease after the spiked
// bound has already been used to slice the string blob or index the store
// records. Both must come back as errors.
func TestDecodeRejectsOffsetSpikes(t *testing.T) {
	const secMeta, secStrings, secStores = 1, 2, 8
	m, p := fixtureModel(t)
	valid, err := modelstore.Encode(p)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	metaOff, _ := sectionRange(t, valid, secMeta)
	numStates := int(binary.LittleEndian.Uint32(valid[metaOff:]))
	numStrings := int(binary.LittleEndian.Uint32(valid[metaOff+3*4:]))

	t.Run("strings", func(t *testing.T) {
		if numStrings < 2 {
			t.Fatalf("fixture has %d strings, need at least 2 for an intermediate spike", numStrings)
		}
		data := append([]byte(nil), valid...)
		off, _ := sectionRange(t, data, secStrings)
		// Spike the second offset: entry 0 still starts at 0 and the final
		// offset still matches the blob length.
		binary.LittleEndian.PutUint32(data[off+4:], 0x7fffffff)
		if _, err := modelstore.Decode(rechecksum(t, data), m); err == nil {
			t.Fatalf("string-offset spike accepted")
		}
	})

	t.Run("stores", func(t *testing.T) {
		data := append([]byte(nil), valid...)
		off, length := sectionRange(t, data, secStores)
		recWords := length/4 - (numStates + 1)
		if numStates < 2 || recWords < 3 {
			t.Fatalf("fixture too small: %d states, %d record words", numStates, recWords)
		}
		// Rewrite the records as one giant well-formed record spanning the
		// whole section, then spike the first state's upper bound past the
		// record count: the window parses cleanly up to the last real word
		// and the overrun read is the very next index.
		recsOff := off + (numStates+1)*4
		binary.LittleEndian.PutUint32(data[recsOff:], 0)                    // store name: ref 0 ("")
		binary.LittleEndian.PutUint32(data[recsOff+4:], uint32(recWords-2)) // field count
		for k := 2; k < recWords; k++ {
			binary.LittleEndian.PutUint32(data[recsOff+k*4:], 0) // field refs: ""
		}
		binary.LittleEndian.PutUint32(data[off+4:], uint32(recWords+8))
		if _, err := modelstore.Decode(rechecksum(t, data), m); err == nil {
			t.Fatalf("store-offset spike accepted")
		}
	})
}
