package modelstore

import (
	"encoding/binary"
	"fmt"
	"sort"

	"privascope/internal/core"
	"privascope/internal/dataflow"
	"privascope/internal/schema"
)

// Encode serialises a generated privacy model into a version-1 artifact. The
// artifact embeds the model's dataflow.Fingerprint, so models whose policies
// cannot be fingerprinted cannot be persisted (they bypass every cache tier
// anyway). Encoding is deterministic: the same model yields byte-identical
// artifacts.
func Encode(p *core.PrivacyLTS) ([]byte, error) {
	fp, err := dataflow.Fingerprint(p.Model)
	if err != nil {
		return nil, fmt.Errorf("modelstore: model cannot be fingerprinted: %w", err)
	}
	parts := p.Graph.Compiled().Parts()
	n, m := len(parts.States), len(parts.Trs)
	if parts.Initial < 0 {
		return nil, fmt.Errorf("modelstore: model has no initial state")
	}

	in := newInterner()

	// States, in dense order.
	stateRefs := make([]uint32, n)
	for s, id := range parts.States {
		stateRefs[s] = in.ref(string(id))
	}

	// Distinct label pointers in first-occurrence order over the transitions.
	// The interned label string of each pointer comes from the compiled label
	// table — no label is re-rendered during encoding.
	ptrIdx := make(map[*core.TransitionLabel]int32)
	var ptrs []*core.TransitionLabel
	var ptrStrs []string
	edgeLabelPtr := make([]int32, m)
	for e, tr := range parts.Trs {
		switch lbl := tr.Label.(type) {
		case nil:
			edgeLabelPtr[e] = -1
		case *core.TransitionLabel:
			if lbl == nil {
				return nil, fmt.Errorf("modelstore: transition %d carries a typed-nil label", e)
			}
			idx, ok := ptrIdx[lbl]
			if !ok {
				idx = int32(len(ptrs))
				ptrIdx[lbl] = idx
				ptrs = append(ptrs, lbl)
				ptrStrs = append(ptrStrs, parts.LabelStrs[parts.EdgeLabel[e]])
			}
			edgeLabelPtr[e] = idx
		default:
			return nil, fmt.Errorf("modelstore: transition %d carries a foreign label type %T", e, tr.Label)
		}
	}
	numLabels := len(ptrs)

	var labels leBuf
	for _, lbl := range ptrs { // action column
		labels.i32(int32(lbl.Action))
	}
	for _, lbl := range ptrs { // flags column
		var flags uint32
		if lbl.Potential {
			flags |= 1
		}
		labels.u32(flags)
	}
	for i, lbl := range ptrs { // string-ref columns
		labels.u32(in.ref(ptrStrs[i]))
		labels.u32(in.ref(lbl.Actor))
		labels.u32(in.ref(lbl.Datastore))
		labels.u32(in.ref(lbl.Purpose))
		labels.u32(in.ref(lbl.Service))
		labels.u32(in.ref(lbl.FlowKey))
		labels.u32(in.ref(lbl.Counterpart))
	}
	fieldsOff := uint32(0)
	labels.u32(0) // fieldsOff column, one ahead of the refs
	for _, lbl := range ptrs {
		fieldsOff += uint32(len(lbl.Fields))
		labels.u32(fieldsOff)
	}
	for _, lbl := range ptrs { // field refs, concatenated
		for _, f := range lbl.Fields {
			labels.u32(in.ref(f))
		}
	}

	var edges leBuf
	for _, v := range parts.EdgeFrom {
		edges.i32(v)
	}
	for _, v := range parts.EdgeTo {
		edges.i32(v)
	}
	for _, v := range edgeLabelPtr {
		edges.i32(v)
	}

	var csr leBuf
	for _, col := range [][]int32{parts.OutOff, parts.InOff, parts.OutEdges, parts.InEdges} {
		for _, v := range col {
			csr.i32(v)
		}
	}

	wpv := p.Vocab.WordsPerVector()
	var vectors leBuf
	for _, id := range parts.States {
		v, ok := p.Vector(id)
		if !ok {
			return nil, fmt.Errorf("modelstore: state %s has no privacy vector", id)
		}
		words := v.Words()
		if len(words) != wpv {
			return nil, fmt.Errorf("modelstore: state %s vector has %d words, vocabulary needs %d", id, len(words), wpv)
		}
		for _, w := range words {
			vectors.u64(w)
		}
	}

	// Per-state datastore contents: offsets count uint32 record words; each
	// record is (store ref, field count, field refs...). Empty field sets are
	// behaviourally invisible and are skipped, keeping the form canonical.
	var storeOffs, storeRecs leBuf
	recWords := uint32(0)
	storeOffs.u32(0)
	for _, id := range parts.States {
		storeMap := p.StoreMap(id)
		for _, name := range sortedStoreNames(storeMap) {
			names := storeMap[name].Names()
			storeRecs.u32(in.ref(name))
			storeRecs.u32(uint32(len(names)))
			for _, f := range names {
				storeRecs.u32(in.ref(f))
			}
			recWords += 2 + uint32(len(names))
		}
		storeOffs.u32(recWords)
	}
	stores := leBuf{b: append(storeOffs.b, storeRecs.b...)}

	var vocab leBuf
	actors, fields := p.Vocab.Actors(), p.Vocab.Fields()
	for _, a := range actors {
		vocab.u32(in.ref(a))
	}
	for _, f := range fields {
		vocab.u32(in.ref(f))
	}
	for _, w := range p.Warnings {
		vocab.u32(in.ref(w))
	}

	// The string table is complete only now; meta depends on its size.
	var strings leBuf
	blobOff := uint32(0)
	strings.u32(0)
	for _, s := range in.all {
		blobOff += uint32(len(s))
		strings.u32(blobOff)
	}
	for _, s := range in.all {
		strings.b = append(strings.b, s...)
	}

	var meta leBuf
	meta.u32(uint32(n))
	meta.u32(uint32(m))
	meta.u32(uint32(numLabels))
	meta.u32(uint32(len(in.all)))
	meta.u32(uint32(wpv))
	meta.u32(uint32(len(actors)))
	meta.u32(uint32(len(fields)))
	meta.u32(uint32(len(p.Warnings)))
	meta.i32(parts.Initial)
	meta.u32(uint32(len(fp)))
	meta.b = append(meta.b, fp...)

	payloads := map[uint32][]byte{
		secMeta:    meta.b,
		secStrings: strings.b,
		secStates:  u32Bytes(stateRefs),
		secLabels:  labels.b,
		secEdges:   edges.b,
		secCSR:     csr.b,
		secVectors: vectors.b,
		secStores:  stores.b,
		secVocab:   vocab.b,
	}
	return assemble(payloads), nil
}

// sortedStoreNames returns the datastore names with non-empty contents,
// sorted.
func sortedStoreNames(storeMap map[string]schema.FieldSet) []string {
	names := make([]string, 0, len(storeMap))
	for name, fs := range storeMap {
		if !fs.IsEmpty() {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// assemble lays the section payloads out after the header and section table,
// 8-aligned, then patches the file size and checksum.
func assemble(payloads map[uint32][]byte) []byte {
	tableLen := len(requiredSections) * secEntrySize
	off := align8(headerSize + tableLen)
	offsets := make(map[uint32]int, len(requiredSections))
	for _, id := range requiredSections {
		offsets[id] = off
		off = align8(off + len(payloads[id]))
	}
	buf := make([]byte, off)
	copy(buf, magic)
	binary.LittleEndian.PutUint32(buf[8:], FormatVersion)
	binary.LittleEndian.PutUint32(buf[12:], uint32(len(requiredSections)))
	binary.LittleEndian.PutUint64(buf[16:], uint64(len(buf)))
	for i, id := range requiredSections {
		e := buf[headerSize+i*secEntrySize:]
		binary.LittleEndian.PutUint32(e, id)
		binary.LittleEndian.PutUint64(e[8:], uint64(offsets[id]))
		binary.LittleEndian.PutUint64(e[16:], uint64(len(payloads[id])))
		copy(buf[offsets[id]:], payloads[id])
	}
	sum := checksumOf(buf)
	copy(buf[checksumOff:], sum[:])
	return buf
}

// interner assigns dense references to strings in first-use order; reference
// 0 is always the empty string.
type interner struct {
	idx map[string]uint32
	all []string
}

func newInterner() *interner {
	return &interner{idx: map[string]uint32{"": 0}, all: []string{""}}
}

func (in *interner) ref(s string) uint32 {
	if r, ok := in.idx[s]; ok {
		return r
	}
	r := uint32(len(in.all))
	in.idx[s] = r
	in.all = append(in.all, s)
	return r
}

// leBuf appends little-endian scalars to a byte slice.
type leBuf struct{ b []byte }

func (w *leBuf) u32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *leBuf) i32(v int32)  { w.u32(uint32(v)) }
func (w *leBuf) u64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }

// u32Bytes renders a uint32 column as little-endian bytes.
func u32Bytes(vs []uint32) []byte {
	var w leBuf
	w.b = make([]byte, 0, 4*len(vs))
	for _, v := range vs {
		w.u32(v)
	}
	return w.b
}
