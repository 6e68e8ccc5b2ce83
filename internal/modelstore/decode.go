package modelstore

import (
	"encoding/binary"
	"fmt"
	"math"

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

// Fingerprint verifies an artifact's framing and checksum and returns the
// embedded model fingerprint, without rebuilding the model.
func Fingerprint(data []byte) (string, error) {
	_, mt, err := parseSections(data)
	return mt.fingerprint, err
}

type meta struct {
	numStates, numEdges, numLabels, numStrings int
	wordsPerVec, numActors, numFields          int
	numWarnings                                int
	initial                                    int32
	fingerprint                                string
}

// Decode rebuilds a privacy model from an artifact, verifying it end to end:
// the header, the whole-file checksum, every section bound, every index and
// offset, both CSR layouts, and — via dataflow.Fingerprint — that the
// artifact really was built from the supplied data-flow model. Malformed
// input of any kind yields an error, never a panic. Everything is copied out
// of data: the caller keeps ownership of the buffer and the model never
// references it again. Store.Load is os.ReadFile plus this function.
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

	// States.
	sr := section("states", secs[secStates])
	stateRefs, err := sr.U32s(mt.numStates)
	if err := firstErr(err, sr.Done()); err != nil {
		return nil, err
	}
	stateIDs := make([]lts.StateID, mt.numStates)
	for s, r := range stateRefs {
		id, err := ref(r)
		if err != nil {
			return nil, err
		}
		stateIDs[s] = lts.StateID(id)
	}

	// Labels. Each decoded label is re-rendered once and compared against its
	// stored interned string, so a checksum-valid but dishonest artifact is
	// rejected rather than silently analysed.
	labels, err := parseLabels(secs[secLabels], mt.numLabels, ref)
	if err != nil {
		return nil, err
	}

	// Edges.
	er := section("edges", secs[secEdges])
	edgeFrom, err1 := er.I32s(mt.numEdges)
	edgeTo, err2 := er.I32s(mt.numEdges)
	edgeLabelPtr, err3 := er.I32s(mt.numEdges)
	if err := firstErr(err1, err2, err3, er.Done()); err != nil {
		return nil, err
	}
	for e := 0; e < mt.numEdges; e++ {
		if edgeFrom[e] < 0 || int(edgeFrom[e]) >= mt.numStates || edgeTo[e] < 0 || int(edgeTo[e]) >= mt.numStates {
			return nil, corruptf("transition %d endpoints (%d, %d) out of range [0, %d)", e, edgeFrom[e], edgeTo[e], mt.numStates)
		}
		if edgeLabelPtr[e] < -1 || int(edgeLabelPtr[e]) >= mt.numLabels {
			return nil, corruptf("transition %d label pointer %d out of range [-1, %d)", e, edgeLabelPtr[e], mt.numLabels)
		}
	}

	// CSR layouts (fully validated by lts.RestoreCompiled below).
	cr := section("csr", secs[secCSR])
	outOff, err1 := cr.I32s(mt.numStates + 1)
	inOff, err2 := cr.I32s(mt.numStates + 1)
	outEdges, err3 := cr.I32s(mt.numEdges)
	inEdges, err4 := cr.I32s(mt.numEdges)
	if err := firstErr(err1, err2, err3, err4, cr.Done()); err != nil {
		return nil, err
	}

	// Vectors.
	vr := section("vectors", secs[secVectors])
	vecWords, err := vr.U64s(mt.numStates * mt.wordsPerVec)
	if err := firstErr(err, vr.Done()); err != nil {
		return nil, err
	}

	// Stores.
	tr := section("stores", secs[secStores])
	storeOff, err := tr.U32s(mt.numStates + 1)
	if err != nil {
		return nil, err
	}
	recs, err := tr.U32s(tr.Len() / 4)
	if err := firstErr(err, tr.Done()); err != nil { // Done rejects a ragged tail
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
	var warnings []string
	for _, r := range warnRefs {
		w, err := ref(r)
		if err != nil {
			return nil, err
		}
		warnings = append(warnings, w)
	}

	// Derive the interned label table exactly as lts does from transitions —
	// by label string in first-occurrence order, with the first Label value per
	// string and nil interning as "" — from each label's verified stored
	// rendering. ptrLid memoises per distinct label; its last slot is nil's.
	edgeLabel := make([]int32, mt.numEdges)
	strLid := make(map[string]int32, mt.numLabels+1)
	ptrLid := make([]int32, mt.numLabels+1)
	for i := range ptrLid {
		ptrLid[i] = -1
	}
	var labelVals []lts.Label
	var labelStrs []string
	trs := make([]lts.Transition, mt.numEdges)
	for e := range trs {
		ptr, str := int(edgeLabelPtr[e]), ""
		var label lts.Label
		if ptr < 0 {
			ptr = mt.numLabels
		} else {
			label, str = labels[ptr].label, labels[ptr].str
		}
		if ptrLid[ptr] < 0 {
			lid, ok := strLid[str]
			if !ok {
				lid = int32(len(labelStrs))
				strLid[str] = lid
				labelStrs = append(labelStrs, str)
				labelVals = append(labelVals, label)
			}
			ptrLid[ptr] = lid
		}
		edgeLabel[e] = ptrLid[ptr]
		trs[e] = lts.Transition{From: stateIDs[edgeFrom[e]], To: stateIDs[edgeTo[e]], Label: label}
	}

	compiled, err := lts.RestoreCompiled(lts.CompiledParts{
		States:    stateIDs,
		Initial:   mt.initial,
		Trs:       trs,
		Labels:    labelVals,
		LabelStrs: labelStrs,
		EdgeLabel: edgeLabel,
		EdgeFrom:  edgeFrom,
		EdgeTo:    edgeTo,
		OutOff:    outOff,
		OutEdges:  outEdges,
		InOff:     inOff,
		InEdges:   inEdges,
	})
	if err != nil {
		return nil, corruptf("%v", err)
	}
	stores, err := parseStores(storeOff, recs, mt.numStates, ref)
	if err != nil {
		return nil, err
	}
	return core.RestorePrivacyLTS(model, vocab, lts.RestoreLTS(compiled), warnings, vecWords, stores), nil
}

// parseSections validates the header, checksum and section table and returns
// the payload of each section and the parsed meta section.
func parseSections(data []byte) (map[uint32][]byte, meta, error) {
	if len(data) < headerSize {
		return nil, meta{}, corruptf("%d bytes is shorter than the %d-byte header", len(data), headerSize)
	}
	if string(data[:8]) != magic {
		return nil, meta{}, corruptf("bad magic")
	}
	version := binary.LittleEndian.Uint32(data[8:])
	if version > FormatVersion {
		return nil, meta{}, fmt.Errorf("%w (artifact v%d, build understands v%d)", ErrFutureVersion, version, FormatVersion)
	}
	if version != FormatVersion {
		return nil, meta{}, corruptf("unknown format version %d", version)
	}
	if size := binary.LittleEndian.Uint64(data[16:]); size != uint64(len(data)) {
		return nil, meta{}, corruptf("header says %d bytes, artifact has %d", size, len(data))
	}
	if sum := checksumOf(data); string(sum[:]) != string(data[checksumOff:checksumOff+checksumSize]) {
		return nil, meta{}, corruptf("checksum mismatch")
	}
	count := binary.LittleEndian.Uint32(data[12:])
	if int(count) != len(requiredSections) {
		return nil, meta{}, corruptf("%d sections, format v1 has %d", count, len(requiredSections))
	}
	tableEnd := headerSize + len(requiredSections)*secEntrySize
	if len(data) < tableEnd {
		return nil, meta{}, corruptf("section table truncated")
	}
	payloadStart := uint64(align8(tableEnd))
	secs := make(map[uint32][]byte, len(requiredSections))
	for i := 0; i < len(requiredSections); i++ {
		e := data[headerSize+i*secEntrySize:]
		id := binary.LittleEndian.Uint32(e)
		off := binary.LittleEndian.Uint64(e[8:])
		length := binary.LittleEndian.Uint64(e[16:])
		if _, dup := secs[id]; dup {
			return nil, meta{}, corruptf("duplicate section %d", id)
		}
		if off%8 != 0 || off < payloadStart || off > uint64(len(data)) || length > uint64(len(data))-off {
			return nil, meta{}, corruptf("section %d spans [%d, %d+%d) outside the artifact", id, off, off, length)
		}
		secs[id] = data[off : off+length : off+length]
	}
	for _, id := range requiredSections {
		if _, ok := secs[id]; !ok {
			return nil, meta{}, corruptf("missing section %d", id)
		}
	}
	mt, err := parseMeta(secs[secMeta], len(data))
	return secs, mt, err
}

// parseMeta reads the counts, initial state and fingerprint. Every count is
// sanity-bounded by the file size, which caps all later size arithmetic.
func parseMeta(sec []byte, fileSize int) (meta, error) {
	const fixed = 10 * 4
	if len(sec) < fixed {
		return meta{}, corruptf("meta section has %d bytes, want at least %d", len(sec), fixed)
	}
	u := func(i int) int { return int(binary.LittleEndian.Uint32(sec[i*4:])) }
	mt := meta{
		numStates:   u(0),
		numEdges:    u(1),
		numLabels:   u(2),
		numStrings:  u(3),
		wordsPerVec: u(4),
		numActors:   u(5),
		numFields:   u(6),
		numWarnings: u(7),
		initial:     int32(binary.LittleEndian.Uint32(sec[8*4:])),
	}
	for _, c := range []int{mt.numStates, mt.numEdges, mt.numLabels, mt.numStrings, mt.wordsPerVec, mt.numActors, mt.numFields, mt.numWarnings} {
		if c > fileSize || c > math.MaxInt32 {
			return meta{}, corruptf("meta count %d exceeds the %d-byte artifact", c, fileSize)
		}
	}
	fpLen := u(9)
	if fpLen != len(sec)-fixed {
		return meta{}, corruptf("fingerprint length %d does not match the meta section", fpLen)
	}
	mt.fingerprint = string(sec[fixed : fixed+fpLen])
	if mt.wordsPerVec < 1 {
		return meta{}, corruptf("wordsPerVec %d, want at least 1", mt.wordsPerVec)
	}
	return mt, nil
}

// decodedLabel pairs a rebuilt label with its verified interned rendering.
type decodedLabel struct {
	label *core.TransitionLabel
	str   string
}

// parseLabels rebuilds the distinct transition labels from the column layout
// and verifies each against its stored rendering.
func parseLabels(sec []byte, count int, ref func(uint32) (string, error)) ([]decodedLabel, error) {
	r := section("labels", sec)
	action, err1 := r.I32s(count)
	flags, err2 := r.U32s(count)
	strRefs, err3 := r.U32s(7 * count)
	fieldsOff, err4 := r.U32s(count + 1)
	if err := firstErr(err1, err2, err3, err4); err != nil {
		return nil, err
	}
	if fieldsOff[0] != 0 {
		return nil, corruptf("label field offsets must start at 0")
	}
	for i := 0; i < count; i++ {
		if fieldsOff[i] > fieldsOff[i+1] {
			return nil, corruptf("label field offsets decrease at label %d", i)
		}
	}
	fieldRefs, err := r.U32s(int(fieldsOff[count]))
	if err := firstErr(err, r.Done()); err != nil {
		return nil, err
	}

	out := make([]decodedLabel, count)
	for i := 0; i < count; i++ {
		if !core.Action(action[i]).Valid() {
			return nil, corruptf("label %d has invalid action %d", i, action[i])
		}
		if flags[i]&^1 != 0 {
			return nil, corruptf("label %d has unknown flags %#x", i, flags[i])
		}
		cols := strRefs[i*7 : (i+1)*7]
		var vals [7]string
		for c, sr := range cols {
			v, err := ref(sr)
			if err != nil {
				return nil, err
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
				return nil, err
			}
			if n := len(lbl.Fields); n > 0 && f < lbl.Fields[n-1] {
				return nil, corruptf("label %d fields are not sorted", i)
			}
			lbl.Fields = append(lbl.Fields, f)
		}
		if got := lbl.LabelString(); got != vals[0] {
			return nil, corruptf("label %d renders %q, artifact claims %q", i, got, vals[0])
		}
		out[i] = decodedLabel{label: lbl, str: vals[0]}
	}
	return out, nil
}

// parseStores rebuilds the per-state datastore contents from the offset/
// record layout, rejecting windows that do not parse exactly. Each distinct
// record window is parsed once and its map shared by every state with that
// window, as generation shares one map per distinct store image; a window
// equal word for word to one already parsed has passed the same checks.
func parseStores(storeOff, recs []uint32, n int, ref func(uint32) (string, error)) ([]map[string]schema.FieldSet, error) {
	if storeOff[0] != 0 || uint64(storeOff[n]) != uint64(len(recs)) {
		return nil, corruptf("store offsets span [%d, %d], records have %d words", storeOff[0], storeOff[n], len(recs))
	}
	// Validate every window bound before touching the records: an intermediate
	// offset spike would otherwise drive the record cursor past len(recs) before
	// the pairwise decrease is reached.
	for s := 0; s < n; s++ {
		if storeOff[s] > storeOff[s+1] {
			return nil, corruptf("store offsets decrease at state %d", s)
		}
		if uint64(storeOff[s+1]) > uint64(len(recs)) {
			return nil, corruptf("store offset %d of state %d exceeds the %d record words", storeOff[s+1], s, len(recs))
		}
	}
	stores := make([]map[string]schema.FieldSet, n)
	parsed := make(map[string]map[string]schema.FieldSet)
	var key []byte
	for s := 0; s < n; s++ {
		lo, hi := storeOff[s], storeOff[s+1]
		if lo == hi {
			continue
		}
		key = key[:0]
		for _, word := range recs[lo:hi] {
			key = binary.LittleEndian.AppendUint32(key, word)
		}
		contents, ok := parsed[string(key)]
		if !ok {
			var err error
			if contents, err = parseStoreWindow(recs[lo:hi], s, ref); err != nil {
				return nil, err
			}
			parsed[string(key)] = contents
		}
		stores[s] = contents
	}
	return stores, nil
}

// parseStoreWindow parses one state's (store ref, field count, field refs...)
// records.
func parseStoreWindow(win []uint32, s int, ref func(uint32) (string, error)) (map[string]schema.FieldSet, error) {
	contents := make(map[string]schema.FieldSet)
	for len(win) > 0 {
		if len(win) < 2 {
			return nil, corruptf("store record of state %d truncated", s)
		}
		name, err := ref(win[0])
		if err != nil {
			return nil, err
		}
		fieldCount := win[1]
		win = win[2:]
		if fieldCount == 0 || uint64(fieldCount) > uint64(len(win)) {
			return nil, corruptf("store %q of state %d claims %d fields, window has %d words", name, s, fieldCount, len(win))
		}
		names := make([]string, fieldCount)
		for k := range names {
			if names[k], err = ref(win[k]); err != nil {
				return nil, err
			}
		}
		win = win[fieldCount:]
		if _, dup := contents[name]; dup {
			return nil, corruptf("state %d lists store %q twice", s, name)
		}
		contents[name] = schema.NewFieldSet(names...)
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
