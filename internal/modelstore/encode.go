package modelstore

import (
	"fmt"
	"sort"

	"privascope/internal/core"
	"privascope/internal/dataflow"
	"privascope/internal/schema"
	"privascope/internal/wire"
)

// Encode serialises a generated privacy model into an artifact of
// FormatVersion. The artifact embeds the model's dataflow.Fingerprint, which
// every model with a data-flow model attached has. Encoding is deterministic:
// the same model yields byte-identical artifacts.
//
// It runs in two passes over the dense model. The first takes every string
// reference in the order that makes the bytes canonical — label columns, each
// store set's records in table order, the vocabulary — so the string table is
// complete; the second sizes every section, allocates the artifact once and
// writes each section at its final offset.
func Encode(p *core.PrivacyLTS) ([]byte, error) {
	fp, err := dataflow.Fingerprint(p.Model)
	if err != nil {
		return nil, fmt.Errorf("modelstore: model cannot be fingerprinted: %w", err)
	}
	parts := p.Graph.Parts()
	n, m := parts.NumStates, len(parts.EdgeLabel)
	if parts.Initial < 0 {
		return nil, fmt.Errorf("modelstore: model has no initial state")
	}
	wpv, vecWords := p.Vocab.WordsPerVector(), p.VectorWords()
	storeOf, storeSets := p.StoreTable()
	if len(vecWords) != n*wpv || len(storeOf) != n {
		return nil, fmt.Errorf("modelstore: model has %d vector words and %d store indexes for %d states of %d words",
			len(vecWords), len(storeOf), n, wpv)
	}
	if err := checkStoreIndex(storeOf, len(storeSets)); err != nil {
		return nil, fmt.Errorf("modelstore: store table: %w", err)
	}

	// Pass 1: string references.
	// The graph's label table is the artifact's: one record per distinct
	// label in first-occurrence order, each with its interned rendering, and
	// the per-edge label index as each edge's reference (-1 for nil).
	labels := make([]*core.TransitionLabel, len(parts.Labels))
	for i, label := range parts.Labels {
		lbl, ok := label.(*core.TransitionLabel)
		if !ok || lbl == nil {
			return nil, fmt.Errorf("modelstore: label %d is %#v, not a *core.TransitionLabel", i, label)
		}
		labels[i] = lbl
	}
	// Seven string refs per label, then every label's field refs. The labels'
	// strings outnumber the stores' and the vocabulary's, so eight a label
	// sizes the table once.
	var in wire.Interner
	in.ResetSized(8 * len(labels))
	var labelRefs []uint32
	for i, lbl := range labels {
		labelRefs = append(labelRefs, in.Ref(parts.LabelStrs[i]), in.Ref(lbl.Actor), in.Ref(lbl.Datastore),
			in.Ref(lbl.Purpose), in.Ref(lbl.Service), in.Ref(lbl.FlowKey), in.Ref(lbl.Counterpart))
	}
	for _, lbl := range labels {
		for _, f := range lbl.Fields {
			labelRefs = append(labelRefs, in.Ref(f))
		}
	}

	// Each distinct store set's records, in table order.
	setRecs := make([][]uint32, len(storeSets))
	recWords := 0
	for k, set := range storeSets {
		setRecs[k] = storeRecords(set, &in)
		recWords += len(setRecs[k])
	}

	actors, fields := p.Vocab.Actors(), p.Vocab.Fields()
	vocabRefs := make([]uint32, 0, len(actors)+len(fields)+len(p.Warnings))
	for _, list := range [][]string{actors, fields, p.Warnings} {
		for _, s := range list {
			vocabRefs = append(vocabRefs, in.Ref(s))
		}
	}
	strs := in.Strings()

	// Pass 2: size every section, then write each at its offset.
	numLabels := len(labels)
	var size, off [secVocab + 1]int
	size[secMeta] = 11*4 + len(fp)
	size[secStrings] = in.TableSize()
	size[secLabels] = 4 * (3*numLabels + 1 + len(labelRefs))
	size[secEdges] = 3 * 4 * m
	size[secVectors] = 8 * len(vecWords)
	size[secStores] = 4*(len(storeSets)+1) + 4*n + 4*recWords
	size[secVocab] = 4 * len(vocabRefs)
	end := align8(headerSize + len(requiredSections)*secEntrySize)
	for _, id := range requiredSections {
		off[id] = end
		end = align8(end + size[id])
	}

	// The buffer is fresh, so the reserved header bytes, the checksum field
	// and the alignment padding are zero when resliced over.
	w := wire.Buf{B: make([]byte, 0, end)}
	w.B = append(w.B, magic...)
	w.U32(FormatVersion)
	w.U32(uint32(len(requiredSections)))
	w.U64(uint64(end))
	w.B = w.B[:headerSize]
	for _, id := range requiredSections {
		w.U32(id)
		w.U32(0)
		w.U64(uint64(off[id]))
		w.U64(uint64(size[id]))
	}
	for _, id := range requiredSections {
		w.B = w.B[:off[id]]
		switch id {
		case secMeta:
			for _, c := range []int{n, m, numLabels, len(strs), wpv, len(actors), len(fields), len(p.Warnings), len(storeSets)} {
				w.U32(uint32(c))
			}
			w.I32(parts.Initial)
			w.U32(uint32(len(fp)))
			w.B = append(w.B, fp...)
		case secStrings:
			w.StringTable(strs)
		case secLabels:
			for _, lbl := range labels {
				w.I32(int32(lbl.Action))
			}
			for _, lbl := range labels {
				var flags uint32
				if lbl.Potential {
					flags |= 1
				}
				w.U32(flags)
			}
			w.U32s(labelRefs[:7*numLabels])
			fieldsOff := uint32(0)
			w.U32(0)
			for _, lbl := range labels {
				fieldsOff += uint32(len(lbl.Fields))
				w.U32(fieldsOff)
			}
			w.U32s(labelRefs[7*numLabels:])
		case secEdges:
			w.I32s(parts.EdgeFrom)
			w.I32s(parts.EdgeTo)
			w.I32s(parts.EdgeLabel)
		case secVectors:
			for _, v := range vecWords {
				w.U64(v)
			}
		case secStores:
			// Offsets count uint32 record words.
			words := uint32(0)
			w.U32(0)
			for _, recs := range setRecs {
				words += uint32(len(recs))
				w.U32(words)
			}
			w.I32s(storeOf)
			for _, recs := range setRecs {
				w.U32s(recs)
			}
		case secVocab:
			w.U32s(vocabRefs)
		}
		if got := len(w.B) - off[id]; got != size[id] {
			return nil, fmt.Errorf("modelstore: encoder wrote %d bytes of section %d, sized %d", got, id, size[id])
		}
	}
	buf := w.B[:end]
	sum := checksumOf(buf)
	copy(buf[checksumOff:], sum[:])
	return buf, nil
}

// storeRecords interns one store set and returns its records: (store ref,
// field count, field refs...) per datastore, by store name, fields sorted.
// Empty field sets are behaviourally invisible and are skipped, keeping the
// form canonical.
func storeRecords(contents map[string]schema.FieldSet, in *wire.Interner) []uint32 {
	names := make([]string, 0, len(contents))
	words := 0
	for name, fs := range contents {
		if !fs.IsEmpty() {
			names = append(names, name)
			words += 2 + fs.Len()
		}
	}
	sort.Strings(names)
	recs := make([]uint32, 0, words)
	for _, name := range names {
		fields := contents[name].Names()
		recs = append(recs, in.Ref(name), uint32(len(fields)))
		for _, f := range fields {
			recs = append(recs, in.Ref(f))
		}
	}
	return recs
}
