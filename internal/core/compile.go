package core

import (
	"math/bits"
	"sort"

	"privascope/internal/accesscontrol"
	"privascope/internal/dataflow"
	"privascope/internal/schema"
)

// compiledModel is the per-Generate compilation of a data-flow model: every
// per-flow and per-policy decision that does not depend on the current
// exploration state is resolved once, up front, so that expanding a state is
// reduced to a few word operations per successor. The compiled form is
// immutable during exploration and therefore shared by all workers.
type compiledModel struct {
	model *dataflow.Model
	vocab *Vocabulary
	codec *stateCodec

	// services in dataflow.Model.ServiceIDs order; flows in global
	// enumeration order (services in ServiceIDs order, each service's flows
	// in declared Order), which is the order transitions are emitted in.
	services []compiledService
	flows    []compiledFlow
	// stores in dataflow.Model.DatastoreIDs order, the order potential reads
	// are enumerated in.
	stores []compiledStore
}

type compiledService struct {
	flowIdxs []int // indices into compiledModel.flows, in execution order
}

// compiledFlow is one data-flow arrow with its gating and effect precompiled
// into bit masks over the packedState layout.
type compiledFlow struct {
	flow    dataflow.Flow
	action  Action
	svcIdx  int
	flowIdx int
	// valid is false when no extraction rule applies to the flow; an invalid
	// flow never fires (and, under OrderSequential, blocks its service).
	valid bool
	// impossible is true when the gate references an actor or field outside
	// the vocabulary, so the gate can never be satisfied.
	impossible bool

	// gateHas lists has-segment bits that must all be set for the flow to
	// fire (the non-authored fields the source actor must already hold).
	gateHas []wordMask
	// gateStore/gateStoreMask require the datastore's mask segment to contain
	// every bit of the mask (read and delete gating); gateStore is -1 when
	// unused.
	gateStore     int
	gateStoreMask []uint64

	// setHas lists has-segment bits set when the flow fires.
	setHas []wordMask
	// storeIdx is the datastore whose segment the flow rewrites (-1 none);
	// storeOr is OR-ed in for create/anon, storeClear is cleared for delete.
	storeIdx   int
	storeOr    []uint64
	storeClear []uint64

	// label is the (immutable, shared) transition label of the flow.
	label *TransitionLabel
}

// compiledStore precompiles, per datastore, the potential-read enumeration
// and the "could identify" contribution of each field it may hold.
type compiledStore struct {
	id string
	// base is the word offset of this store's mask segment.
	base int
	// readers lists, in sorted actor order, every actor the policy allows to
	// read some field of this store, with the per-field bit positions needed
	// to test occupancy and the actor's has-bit.
	readers []storeReader
	// couldByField[fieldIdx] is the has-segment mask of could(actor, field)
	// bits implied by the field being present in this store, for every actor
	// with read access.
	couldByField [][]wordMask
}

type storeReader struct {
	actor  string
	fields []readerField
}

type readerField struct {
	name string
	// word/mask locate the field's bit in the store's mask segment
	// (store-relative word index).
	word int
	mask uint64
	// has locates has(actor, field) in the has segment; a zero mask means the
	// actor or field is outside the vocabulary (the bit is never set, so the
	// field is always considered unidentified and reading it is a no-op —
	// matching StateVector semantics for unknown actors).
	has wordMask
}

// evenBits masks the HasIdentified bit positions of a state-vector word: has
// bits sit at even positions, their CouldIdentify counterparts at the next
// odd position, so could |= has is a masked shift within each word.
const evenBits = 0x5555555555555555

// compileModel builds the compiled form of the model for the given options.
func compileModel(m *dataflow.Model, policy accesscontrol.Policy, vocab *Vocabulary, ordering FlowOrdering) *compiledModel {
	// Store-field universe: every model field plus its pseudonymised form.
	fieldSet := make(map[string]bool)
	for _, f := range m.FieldUniverse() {
		fieldSet[f] = true
		fieldSet[schema.AnonName(f)] = true
	}
	storeFields := make([]string, 0, len(fieldSet))
	for f := range fieldSet {
		storeFields = append(storeFields, f)
	}
	sort.Strings(storeFields)

	storeIDs := m.DatastoreIDs()
	storeIndex := make(map[string]int, len(storeIDs))
	for i, id := range storeIDs {
		storeIndex[id] = i
	}

	serviceIDs := m.ServiceIDs()
	numFlows := len(m.Flows)
	codec := newStateCodec(vocab.wordsPerVec, storeFields, len(storeIDs), len(serviceIDs), numFlows, ordering)

	cm := &compiledModel{model: m, vocab: vocab, codec: codec}

	// Flows, in the enumeration order of exploration.
	for svcIdx, svcID := range serviceIDs {
		var svc compiledService
		for _, f := range m.ServiceFlows(svcID) {
			flowIdx := len(cm.flows)
			cm.flows = append(cm.flows, compileFlow(m, vocab, codec, storeIndex, f, svcIdx, flowIdx))
			svc.flowIdxs = append(svc.flowIdxs, flowIdx)
		}
		cm.services = append(cm.services, svc)
	}

	// Stores: potential-read tables and could-bit contributions.
	for storeIdx, storeID := range storeIDs {
		cs := compiledStore{
			id:           storeID,
			base:         codec.storeBase(storeIdx),
			couldByField: make([][]wordMask, len(storeFields)),
		}
		byActor := make(map[string][]readerField)
		for fieldIdx, field := range storeFields {
			for _, actor := range policy.ActorsWith(storeID, field, accesscontrol.PermissionRead) {
				rf := readerField{name: field, word: fieldIdx / 64, mask: 1 << uint(fieldIdx%64)}
				if bit := vocab.index(actor, field, HasIdentified); bit >= 0 {
					rf.has = wordMask{word: bit / 64, mask: 1 << uint(bit%64)}
				}
				byActor[actor] = append(byActor[actor], rf)
				if bit := vocab.index(actor, field, CouldIdentify); bit >= 0 {
					cs.couldByField[fieldIdx] = addBit(cs.couldByField[fieldIdx], bit)
				}
			}
		}
		actors := make([]string, 0, len(byActor))
		for a := range byActor {
			actors = append(actors, a)
		}
		sort.Strings(actors)
		for _, a := range actors {
			cs.readers = append(cs.readers, storeReader{actor: a, fields: byActor[a]})
		}
		cm.stores = append(cm.stores, cs)
	}
	return cm
}

// compileFlow resolves one flow's action, gate and effect.
func compileFlow(m *dataflow.Model, vocab *Vocabulary, codec *stateCodec, storeIndex map[string]int, f dataflow.Flow, svcIdx, flowIdx int) compiledFlow {
	cf := compiledFlow{flow: f, svcIdx: svcIdx, flowIdx: flowIdx, gateStore: -1, storeIdx: -1}
	action, ok := deriveAction(m, f)
	if !ok {
		return cf
	}
	cf.action = action
	cf.valid = true
	cf.label = flowLabel(f, action)

	gateHasBit := func(actor, field string) {
		bit := vocab.index(actor, field, HasIdentified)
		if bit < 0 {
			cf.impossible = true
			return
		}
		cf.gateHas = addBit(cf.gateHas, bit)
	}
	setHasBit := func(actor, field string) {
		if bit := vocab.index(actor, field, HasIdentified); bit >= 0 {
			cf.setHas = addBit(cf.setHas, bit)
		}
	}
	storeMask := func(fields []string, anon bool) []uint64 {
		mask := make([]uint64, codec.storeWords)
		for _, field := range fields {
			name := field
			if anon {
				name = schema.AnonName(field)
			}
			idx, ok := codec.storeFieldIndex[name]
			if !ok {
				cf.impossible = true
				continue
			}
			mask[idx/64] |= 1 << uint(idx%64)
		}
		return mask
	}

	switch action {
	case ActionCollect:
		for _, field := range f.Fields {
			setHasBit(f.To, field)
		}
	case ActionDisclose:
		authored := f.AuthoredSet()
		for _, field := range f.Fields {
			if !authored.Contains(field) {
				gateHasBit(f.From, field)
			}
			setHasBit(f.To, field)
		}
		for _, field := range f.Authored {
			setHasBit(f.From, field)
		}
	case ActionCreate, ActionAnon:
		authored := f.AuthoredSet()
		for _, field := range f.Fields {
			if !authored.Contains(field) {
				gateHasBit(f.From, field)
			}
		}
		for _, field := range f.Authored {
			setHasBit(f.From, field)
		}
		cf.storeIdx = storeIndex[f.To]
		cf.storeOr = storeMask(f.Fields, action == ActionAnon)
	case ActionDelete:
		cf.gateStore = storeIndex[f.To]
		cf.gateStoreMask = storeMask(f.Fields, false)
		cf.storeIdx = storeIndex[f.To]
		cf.storeClear = cf.gateStoreMask
	case ActionRead:
		cf.gateStore = storeIndex[f.From]
		cf.gateStoreMask = storeMask(f.Fields, false)
		for _, field := range f.Fields {
			setHasBit(f.To, field)
		}
	}
	return cf
}

// enabled reports whether the flow may fire in the given state: the gating
// rule "the start node has the correct data to flow".
func (cm *compiledModel) enabled(cf *compiledFlow, ps packedState) bool {
	if !cf.valid || cf.impossible {
		return false
	}
	for _, wm := range cf.gateHas {
		if ps[wm.word]&wm.mask != wm.mask {
			return false
		}
	}
	if cf.gateStore >= 0 {
		base := cm.codec.storeBase(cf.gateStore)
		for w, m := range cf.gateStoreMask {
			if ps[base+w]&m != m {
				return false
			}
		}
	}
	return true
}

// publicVectorInto computes the public vector into a caller-provided word
// slice of length codec.hasWords (the batch assembly writes into a shared
// slab).
func (cm *compiledModel) publicVectorInto(ps packedState, words []uint64) {
	copy(words, ps[:cm.codec.hasWords])
	for i, w := range words {
		words[i] = w | (w&evenBits)<<1
	}
	for si := range cm.stores {
		cs := &cm.stores[si]
		for w := 0; w < cm.codec.storeWords; w++ {
			remaining := ps[cs.base+w]
			for remaining != 0 {
				fieldIdx := w*64 + bits.TrailingZeros64(remaining)
				for _, wm := range cs.couldByField[fieldIdx] {
					words[wm.word] |= wm.mask
				}
				remaining &= remaining - 1
			}
		}
	}
}

// decodeStores materialises the datastore contents of a packed state as the
// field sets the PrivacyLTS API (and the pseudonymisation analysis) consume.
func (cm *compiledModel) decodeStores(ps packedState) map[string]schema.FieldSet {
	out := make(map[string]schema.FieldSet, len(cm.stores))
	for si := range cm.stores {
		cs := &cm.stores[si]
		var names []string
		for w := 0; w < cm.codec.storeWords; w++ {
			remaining := ps[cs.base+w]
			for remaining != 0 {
				names = append(names, cm.codec.storeFields[w*64+bits.TrailingZeros64(remaining)])
				remaining &= remaining - 1
			}
		}
		if len(names) > 0 {
			out[cs.id] = schema.NewFieldSet(names...)
		}
	}
	return out
}
