package modelstore

import (
	"encoding/binary"
	"fmt"
	"sort"

	"privascope/internal/core"
	"privascope/internal/dataflow"
	"privascope/internal/schema"
	"privascope/internal/wire"
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
	parts := p.Graph.Parts()
	n, m := len(parts.States), len(parts.Trs)
	if parts.Initial < 0 {
		return nil, fmt.Errorf("modelstore: model has no initial state")
	}

	var in wire.Interner
	in.Reset()

	// States, in dense order.
	states := wire.Buf{B: make([]byte, 0, 4*n)}
	for _, id := range parts.States {
		states.U32(in.Ref(string(id)))
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

	var labels wire.Buf
	for _, lbl := range ptrs { // action column
		labels.I32(int32(lbl.Action))
	}
	for _, lbl := range ptrs { // flags column
		var flags uint32
		if lbl.Potential {
			flags |= 1
		}
		labels.U32(flags)
	}
	for i, lbl := range ptrs { // string-ref columns
		labels.U32(in.Ref(ptrStrs[i]))
		labels.U32(in.Ref(lbl.Actor))
		labels.U32(in.Ref(lbl.Datastore))
		labels.U32(in.Ref(lbl.Purpose))
		labels.U32(in.Ref(lbl.Service))
		labels.U32(in.Ref(lbl.FlowKey))
		labels.U32(in.Ref(lbl.Counterpart))
	}
	fieldsOff := uint32(0)
	labels.U32(0) // fieldsOff column, one ahead of the refs
	for _, lbl := range ptrs {
		fieldsOff += uint32(len(lbl.Fields))
		labels.U32(fieldsOff)
	}
	for _, lbl := range ptrs { // field refs, concatenated
		for _, f := range lbl.Fields {
			labels.U32(in.Ref(f))
		}
	}

	var edges, csr wire.Buf
	for _, col := range [][]int32{parts.EdgeFrom, parts.EdgeTo, edgeLabelPtr} {
		edges.I32s(col)
	}
	for _, col := range [][]int32{parts.OutOff, parts.InOff, parts.OutEdges, parts.InEdges} {
		csr.I32s(col)
	}

	wpv := p.Vocab.WordsPerVector()
	var vectors wire.Buf
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
			vectors.U64(w)
		}
	}

	// Per-state datastore contents: offsets count uint32 record words; each
	// record is (store ref, field count, field refs...). Empty field sets are
	// behaviourally invisible and are skipped, keeping the form canonical.
	var storeOffs, storeRecs wire.Buf
	recWords := uint32(0)
	storeOffs.U32(0)
	for _, id := range parts.States {
		storeMap := p.StoreMap(id)
		for _, name := range sortedStoreNames(storeMap) {
			names := storeMap[name].Names()
			storeRecs.U32(in.Ref(name))
			storeRecs.U32(uint32(len(names)))
			for _, f := range names {
				storeRecs.U32(in.Ref(f))
			}
			recWords += 2 + uint32(len(names))
		}
		storeOffs.U32(recWords)
	}
	stores := append(storeOffs.B, storeRecs.B...)

	var vocab wire.Buf
	actors, fields := p.Vocab.Actors(), p.Vocab.Fields()
	for _, a := range actors {
		vocab.U32(in.Ref(a))
	}
	for _, f := range fields {
		vocab.U32(in.Ref(f))
	}
	for _, w := range p.Warnings {
		vocab.U32(in.Ref(w))
	}

	// The string table is complete only now; meta depends on its size.
	var strings, meta wire.Buf
	strings.StringTable(in.Strings())
	meta.U32(uint32(n))
	meta.U32(uint32(m))
	meta.U32(uint32(numLabels))
	meta.U32(uint32(len(in.Strings())))
	meta.U32(uint32(wpv))
	meta.U32(uint32(len(actors)))
	meta.U32(uint32(len(fields)))
	meta.U32(uint32(len(p.Warnings)))
	meta.I32(parts.Initial)
	meta.U32(uint32(len(fp)))
	meta.B = append(meta.B, fp...)

	payloads := map[uint32][]byte{
		secMeta:    meta.B,
		secStrings: strings.B,
		secStates:  states.B,
		secLabels:  labels.B,
		secEdges:   edges.B,
		secCSR:     csr.B,
		secVectors: vectors.B,
		secStores:  stores,
		secVocab:   vocab.B,
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
