package modelstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"privascope/internal/core"
	"privascope/internal/dataflow"
	"privascope/internal/lts"
	"privascope/internal/schema"
	"privascope/internal/wire"
)

// ErrFutureVersion is wrapped by Decode when the artifact was written by a
// newer format version than this build understands; the caller should
// regenerate rather than report corruption.
var ErrFutureVersion = fmt.Errorf("modelstore: artifact format version is newer than this build")

type meta struct {
	numStates, numEdges, numLabels, numStrings int
	wordsPerVec, numActors, numFields          int
	numWarnings, numStoreSets                  int
	initial                                    int32
	fingerprint                                string
}

// Decode rebuilds a privacy model from an artifact, verifying it end to end:
// the header, the whole-file checksum, every section bound, every index and
// offset, and — via dataflow.Fingerprint — that the artifact really was built
// from the supplied data-flow model. Malformed input of any kind yields an
// error, never a panic. Everything is copied out of data: the caller keeps
// ownership of the buffer and the model never references it again.
// Store.Load is os.ReadFile plus this function.
func Decode(data []byte, model *dataflow.Model) (*core.PrivacyLTS, error) {
	secs, mt, err := parseSections(data)
	if err != nil {
		return nil, err
	}

	// Cheapest honest check first: is this artifact even for this model?
	fp, err := dataflow.Fingerprint(model)
	if err != nil {
		return nil, fmt.Errorf("modelstore: model cannot be fingerprinted: %w", err)
	}
	if fp != mt.fingerprint {
		return nil, fmt.Errorf("modelstore: artifact was built from a different model (fingerprint %.12s… vs %.12s…)", mt.fingerprint, fp)
	}
	if mt.numStates < 1 {
		return nil, corruptf("no states")
	}
	if mt.initial < 0 || int(mt.initial) >= mt.numStates {
		return nil, corruptf("initial state %d out of range [0, %d)", mt.initial, mt.numStates)
	}

	// The interned string table must fill its section.
	tc := section("strings", secs[secStrings])
	strs, err := tc.Strings(mt.numStrings)
	if err := firstErr(err, tc.Done()); err != nil {
		return nil, err
	}
	ref := func(r uint32) (string, error) {
		if int64(r) >= int64(len(strs)) {
			return "", corruptf("string reference %d out of range [0, %d)", r, len(strs))
		}
		return strs[r], nil
	}

	// Labels. Each decoded label is re-rendered once and compared against its
	// stored interned string, so a checksum-valid but dishonest artifact is
	// rejected rather than silently analysed.
	labels, labelStrs, err := parseLabels(secs[secLabels], mt.numLabels, ref)
	if err != nil {
		return nil, err
	}

	// Edges.
	er := section("edges", secs[secEdges])
	edgeFrom, err1 := er.I32s(mt.numEdges)
	edgeTo, err2 := er.I32s(mt.numEdges)
	edgeLabel, err3 := er.I32s(mt.numEdges)
	if err := firstErr(err1, err2, err3, er.Done()); err != nil {
		return nil, err
	}

	// Vectors.
	vr := section("vectors", secs[secVectors])
	vecWords, err := vr.U64s(mt.numStates * mt.wordsPerVec)
	if err := firstErr(err, vr.Done()); err != nil {
		return nil, err
	}

	// Stores: each distinct set's record offset, each state's set, the records.
	tr := section("stores", secs[secStores])
	setOff, err1 := tr.U32s(mt.numStoreSets + 1)
	storeOf, err2 := tr.I32s(mt.numStates)
	recs, err3 := tr.U32s(tr.Len() / 4)
	if err := firstErr(err1, err2, err3, tr.Done()); err != nil { // Done rejects a ragged tail
		return nil, err
	}

	// Vocabulary and warnings.
	wr := section("vocab", secs[secVocab])
	actorRefs, err1 := wr.U32s(mt.numActors)
	fieldRefs, err2 := wr.U32s(mt.numFields)
	warnRefs, err3 := wr.U32s(mt.numWarnings)
	if err := firstErr(err1, err2, err3, wr.Done()); err != nil {
		return nil, err
	}
	vocab := core.VocabularyFromModel(model)
	if err := matchVocab(vocab, actorRefs, fieldRefs, mt.wordsPerVec, ref); err != nil {
		return nil, err
	}
	// A vector bit past the vocabulary names no variable, yet it would tell
	// two otherwise equal vectors apart.
	if used := vocab.NumVariables() - (mt.wordsPerVec-1)*64; used < 64 {
		padding := ^uint64(0) << used
		for s := 0; s < mt.numStates; s++ {
			if stray := vecWords[(s+1)*mt.wordsPerVec-1] & padding; stray != 0 {
				return nil, corruptf("state s%d sets vector bit %d, past the vocabulary's %d variables",
					s, (mt.wordsPerVec-1)*64+bits.TrailingZeros64(stray), vocab.NumVariables())
			}
		}
	}
	var warnings []string
	for _, r := range warnRefs {
		w, err := ref(r)
		if err != nil {
			return nil, err
		}
		warnings = append(warnings, w)
	}

	// The label records are the graph's label table and each edge's reference
	// its index. RestoreCompiled rejects a record no edge references or one
	// out of first-occurrence order, so the table is the one generation builds.
	graph, err := lts.RestoreCompiled(lts.CompiledParts{
		NumStates: mt.numStates,
		Initial:   mt.initial,
		Labels:    labels,
		LabelStrs: labelStrs,
		EdgeLabel: edgeLabel,
		EdgeFrom:  edgeFrom,
		EdgeTo:    edgeTo,
	})
	if err != nil {
		return nil, corruptf("%v", err)
	}
	storeSets, err := parseStores(setOff, storeOf, recs, ref)
	if err != nil {
		return nil, err
	}
	return core.RestorePrivacyLTS(model, vocab, graph, warnings, vecWords, storeOf, storeSets), nil
}

// parseSections validates the header, checksum and section table and returns
// the payload of each section, indexed by section id, and the parsed meta
// section. The table lists the sections in file order, each starting where
// Encode puts it: 8-byte aligned, right after the previous one.
func parseSections(data []byte) ([secVocab + 1][]byte, meta, error) {
	var secs [secVocab + 1][]byte
	if len(data) < headerSize {
		return secs, meta{}, corruptf("%d bytes is shorter than the %d-byte header", len(data), headerSize)
	}
	if string(data[:8]) != magic {
		return secs, meta{}, corruptf("bad magic")
	}
	version := binary.LittleEndian.Uint32(data[8:])
	if version > FormatVersion {
		return secs, meta{}, fmt.Errorf("%w (artifact v%d, build understands v%d)", ErrFutureVersion, version, FormatVersion)
	}
	if version != FormatVersion {
		return secs, meta{}, corruptf("unknown format version %d", version)
	}
	if size := binary.LittleEndian.Uint64(data[16:]); size != uint64(len(data)) {
		return secs, meta{}, corruptf("header says %d bytes, artifact has %d", size, len(data))
	}
	if sum := checksumOf(data); [checksumSize]byte(data[checksumOff:checksumOff+checksumSize]) != sum {
		return secs, meta{}, corruptf("checksum mismatch")
	}
	if count := binary.LittleEndian.Uint32(data[12:]); int(count) != len(requiredSections) {
		return secs, meta{}, corruptf("%d sections, format v%d has %d", count, FormatVersion, len(requiredSections))
	}
	end := align8(headerSize + len(requiredSections)*secEntrySize)
	if len(data) < end {
		return secs, meta{}, corruptf("section table truncated")
	}
	for i, id := range requiredSections {
		e := data[headerSize+i*secEntrySize:]
		off, length := binary.LittleEndian.Uint64(e[8:]), binary.LittleEndian.Uint64(e[16:])
		if binary.LittleEndian.Uint32(e) != id || off != uint64(end) || end > len(data) || length > uint64(len(data)-end) {
			return secs, meta{}, corruptf("section table entry %d is not section %d at offset %d within the artifact", i, id, end)
		}
		secs[id] = data[off : off+length : off+length]
		end = align8(end + int(length))
	}
	mt, err := parseMeta(secs[secMeta], len(data))
	return secs, mt, err
}

// parseMeta reads the counts, initial state and fingerprint. Every count is
// sanity-bounded by the file size, which caps all later size arithmetic.
func parseMeta(sec []byte, fileSize int) (meta, error) {
	const fixed = 11 * 4
	if len(sec) < fixed {
		return meta{}, corruptf("meta section has %d bytes, want at least %d", len(sec), fixed)
	}
	u := func(i int) int { return int(binary.LittleEndian.Uint32(sec[i*4:])) }
	mt := meta{
		numStates:    u(0),
		numEdges:     u(1),
		numLabels:    u(2),
		numStrings:   u(3),
		wordsPerVec:  u(4),
		numActors:    u(5),
		numFields:    u(6),
		numWarnings:  u(7),
		numStoreSets: u(8),
		initial:      int32(binary.LittleEndian.Uint32(sec[9*4:])),
	}
	for _, c := range []int{mt.numStates, mt.numEdges, mt.numLabels, mt.numStrings, mt.wordsPerVec, mt.numActors, mt.numFields, mt.numWarnings, mt.numStoreSets} {
		if c > fileSize || c > math.MaxInt32 {
			return meta{}, corruptf("meta count %d exceeds the %d-byte artifact", c, fileSize)
		}
	}
	fpLen := u(10)
	if fpLen != len(sec)-fixed {
		return meta{}, corruptf("fingerprint length %d does not match the meta section", fpLen)
	}
	mt.fingerprint = string(sec[fixed : fixed+fpLen])
	if mt.wordsPerVec < 1 {
		return meta{}, corruptf("wordsPerVec %d, want at least 1", mt.wordsPerVec)
	}
	return mt, nil
}

// parseLabels rebuilds the distinct transition labels from the column layout
// and verifies each against its stored rendering, which it returns beside it.
func parseLabels(sec []byte, count int, ref func(uint32) (string, error)) ([]lts.Label, []string, error) {
	r := section("labels", sec)
	action, err1 := r.I32s(count)
	flags, err2 := r.U32s(count)
	strRefs, err3 := r.U32s(7 * count)
	fieldsOff, err4 := r.U32s(count + 1)
	if err := firstErr(err1, err2, err3, err4); err != nil {
		return nil, nil, err
	}
	if fieldsOff[0] != 0 {
		return nil, nil, corruptf("label field offsets must start at 0")
	}
	for i := 0; i < count; i++ {
		if fieldsOff[i] > fieldsOff[i+1] {
			return nil, nil, corruptf("label field offsets decrease at label %d", i)
		}
	}
	fieldRefs, err := r.U32s(int(fieldsOff[count]))
	if err := firstErr(err, r.Done()); err != nil {
		return nil, nil, err
	}

	labels, strs := make([]lts.Label, count), make([]string, count)
	for i := 0; i < count; i++ {
		if !core.Action(action[i]).Valid() {
			return nil, nil, corruptf("label %d has invalid action %d", i, action[i])
		}
		if flags[i]&^1 != 0 {
			return nil, nil, corruptf("label %d has unknown flags %#x", i, flags[i])
		}
		cols := strRefs[i*7 : (i+1)*7]
		var vals [7]string
		for c, sr := range cols {
			v, err := ref(sr)
			if err != nil {
				return nil, nil, err
			}
			vals[c] = v
		}
		lbl := &core.TransitionLabel{
			Action:      core.Action(action[i]),
			Actor:       vals[1],
			Datastore:   vals[2],
			Purpose:     vals[3],
			Service:     vals[4],
			FlowKey:     vals[5],
			Potential:   flags[i]&1 != 0,
			Counterpart: vals[6],
		}
		for _, fr := range fieldRefs[fieldsOff[i]:fieldsOff[i+1]] {
			f, err := ref(fr)
			if err != nil {
				return nil, nil, err
			}
			if n := len(lbl.Fields); n > 0 && f < lbl.Fields[n-1] {
				return nil, nil, corruptf("label %d fields are not sorted", i)
			}
			lbl.Fields = append(lbl.Fields, f)
		}
		if got := lbl.LabelString(); got != vals[0] {
			return nil, nil, corruptf("label %d renders %q, artifact claims %q", i, got, vals[0])
		}
		labels[i], strs[i] = lbl, vals[0]
	}
	return labels, strs, nil
}

// parseStores parses each distinct store set once, from its window of the
// records, after checking that the per-state set indexes are canonical
// (checkStoreIndex).
func parseStores(setOff []uint32, storeOf []int32, recs []uint32, ref func(uint32) (string, error)) ([]map[string]schema.FieldSet, error) {
	k := len(setOff) - 1
	if setOff[0] != 0 || uint64(setOff[k]) != uint64(len(recs)) {
		return nil, corruptf("store set offsets span [%d, %d], records have %d words", setOff[0], setOff[k], len(recs))
	}
	// Validate every window bound before touching the records: an intermediate
	// offset spike would otherwise drive the record cursor past len(recs) before
	// the pairwise decrease is reached.
	for i := 0; i < k; i++ {
		if setOff[i] > setOff[i+1] || uint64(setOff[i+1]) > uint64(len(recs)) {
			return nil, corruptf("store set %d spans [%d, %d] of %d record words", i, setOff[i], setOff[i+1], len(recs))
		}
	}
	if err := checkStoreIndex(storeOf, k); err != nil {
		return nil, corruptf("%v", err)
	}
	sets := make([]map[string]schema.FieldSet, k)
	for i := range sets {
		contents, err := parseStoreSet(recs[setOff[i]:setOff[i+1]], i, ref)
		if err != nil {
			return nil, err
		}
		sets[i] = contents
	}
	return sets, nil
}

// parseStoreSet parses one store set's (store ref, field count, field
// refs...) records. Stores and each store's fields must be strictly
// ascending, as Encode writes them, so an accepted set has one spelling.
func parseStoreSet(win []uint32, set int, ref func(uint32) (string, error)) (map[string]schema.FieldSet, error) {
	contents := make(map[string]schema.FieldSet)
	prevName := ""
	for len(win) > 0 {
		if len(win) < 2 {
			return nil, corruptf("record of store set %d truncated", set)
		}
		name, err := ref(win[0])
		if err != nil {
			return nil, err
		}
		fieldCount := win[1]
		win = win[2:]
		if fieldCount == 0 || uint64(fieldCount) > uint64(len(win)) {
			return nil, corruptf("store %q of set %d claims %d fields, window has %d words", name, set, fieldCount, len(win))
		}
		if len(contents) > 0 && name <= prevName {
			return nil, corruptf("store set %d lists store %q after %q", set, name, prevName)
		}
		names := make([]string, fieldCount)
		for i := range names {
			if names[i], err = ref(win[i]); err != nil {
				return nil, err
			}
			if i > 0 && names[i] <= names[i-1] {
				return nil, corruptf("store %q of set %d lists field %q after %q", name, set, names[i], names[i-1])
			}
		}
		win = win[fieldCount:]
		contents[name], prevName = schema.NewFieldSet(names...), name
	}
	return contents, nil
}

// matchVocab verifies the artifact's stored vocabulary against the one
// derived from the supplied model.
func matchVocab(vocab *core.Vocabulary, actorRefs, fieldRefs []uint32, wordsPerVec int, ref func(uint32) (string, error)) error {
	if wpv := vocab.WordsPerVector(); wpv != wordsPerVec {
		return corruptf("artifact has %d words per vector, model needs %d", wordsPerVec, wpv)
	}
	for _, pair := range []struct {
		name   string
		refs   []uint32
		expect []string
	}{
		{"actor", actorRefs, vocab.Actors()},
		{"field", fieldRefs, vocab.Fields()},
	} {
		if len(pair.refs) != len(pair.expect) {
			return corruptf("artifact has %d %ss, model has %d", len(pair.refs), pair.name, len(pair.expect))
		}
		for i, r := range pair.refs {
			got, err := ref(r)
			if err != nil {
				return err
			}
			if got != pair.expect[i] {
				return corruptf("%s %d is %q in the artifact, %q in the model", pair.name, i, got, pair.expect[i])
			}
		}
	}
	return nil
}

// section returns a cursor over one section's payload whose errors name the
// section.
func section(name string, b []byte) *wire.Cursor {
	return wire.NewCursor(corruptLabel+": "+name+" section", b)
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
