package core

// packedState is the compact exploration state of the generator: one flat
// vector of uint64 words holding, in order,
//
//   - the "has" bits of the privacy state vector (Vocabulary layout),
//   - one field-occupancy bitmask per datastore (stateCodec field layout),
//   - a control segment: per-service 16-bit progress counters under
//     OrderSequential, or a fired-flow bitset under OrderDataDriven.
//
// Two exploration states are equal exactly when their packed words are equal,
// so the byte image of the words is the canonical fixed-width hash key of the
// state. Compared with the string-built keys the generator used previously,
// a packed state is a single allocation, copies with memmove, and hashes
// without any sorting or formatting.
type packedState []uint64

// wordMask addresses a group of bits within one word of a packedState (or of
// a StateVector's words). Precompiled gate and apply masks are lists of
// wordMasks merged per word, so firing a flow is a handful of OR/AND-NOT ops.
type wordMask struct {
	word int
	mask uint64
}

// addBit merges a bit position into a per-word-merged mask list.
func addBit(masks []wordMask, bit int) []wordMask {
	word, mask := bit/64, uint64(1)<<uint(bit%64)
	for i := range masks {
		if masks[i].word == word {
			masks[i].mask |= mask
			return masks
		}
	}
	return append(masks, wordMask{word: word, mask: mask})
}

// stateCodec fixes the binary layout of packedState for one (model, flow
// ordering) pair. All offsets are in words.
type stateCodec struct {
	ordering FlowOrdering

	// hasWords is the length of the "has" segment (== Vocabulary.wordsPerVec;
	// the could bits are derived, never stored).
	hasWords int
	// storeWords is the length of each datastore's occupancy bitmask.
	storeWords int
	// ctrlBase is the word offset of the control segment.
	ctrlBase   int
	totalWords int

	// storeFields is the sorted universe of names a datastore can hold: every
	// model field plus its pseudonymised (_anon) counterpart. The bit of a
	// field inside a store mask is its index here.
	storeFields     []string
	storeFieldIndex map[string]int
}

func newStateCodec(hasWords int, storeFields []string, numStores, numServices, numFlows int, ordering FlowOrdering) *stateCodec {
	c := &stateCodec{
		ordering:        ordering,
		hasWords:        hasWords,
		storeFields:     storeFields,
		storeFieldIndex: make(map[string]int, len(storeFields)),
	}
	for i, f := range storeFields {
		c.storeFieldIndex[f] = i
	}
	c.storeWords = (len(storeFields) + 63) / 64
	c.ctrlBase = c.hasWords + numStores*c.storeWords
	ctrlWords := 0
	if ordering == OrderDataDriven {
		ctrlWords = (numFlows + 63) / 64
	} else {
		// Four 16-bit progress counters per word.
		ctrlWords = (numServices + 3) / 4
	}
	c.totalWords = c.ctrlBase + ctrlWords
	return c
}

// newState returns the all-zero packed state: the absolute privacy state with
// empty datastores and no service progress.
func (c *stateCodec) newState() packedState { return make(packedState, c.totalWords) }

// storeBase returns the word offset of the given datastore's mask segment.
func (c *stateCodec) storeBase(storeIdx int) int { return c.hasWords + storeIdx*c.storeWords }

// progress returns the index of the next flow of the given service
// (OrderSequential layout).
func (c *stateCodec) progress(ps packedState, svcIdx int) int {
	shift := uint(svcIdx%4) * 16
	return int(ps[c.ctrlBase+svcIdx/4] >> shift & 0xffff)
}

// bumpProgress advances the given service's progress counter by one.
func (c *stateCodec) bumpProgress(ps packedState, svcIdx int) {
	shift := uint(svcIdx%4) * 16
	ps[c.ctrlBase+svcIdx/4] += 1 << shift
}

// fired reports whether the flow has executed (OrderDataDriven layout).
func (c *stateCodec) fired(ps packedState, flowIdx int) bool {
	return ps[c.ctrlBase+flowIdx/64]&(1<<uint(flowIdx%64)) != 0
}

// setFired marks the flow as executed.
func (c *stateCodec) setFired(ps packedState, flowIdx int) {
	ps[c.ctrlBase+flowIdx/64] |= 1 << uint(flowIdx%64)
}
