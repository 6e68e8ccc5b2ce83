package modelstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"privascope/internal/core"
	"privascope/internal/dataflow"
	"privascope/internal/lts"
	"privascope/internal/schema"
)

// ErrFutureVersion is wrapped by Decode when the artifact was written by a
// newer format version than this build understands; the caller should
// regenerate rather than report corruption.
var ErrFutureVersion = fmt.Errorf("modelstore: artifact format version is newer than this build")

// Decode rebuilds a privacy model from an artifact, verifying it end to end:
// the header, the whole-file checksum, every section bound, every index and
// offset, both CSR layouts, and — via dataflow.Fingerprint — that the
// artifact really was built from the supplied data-flow model. Malformed
// input of any kind yields an error, never a panic. The data is copied; the
// caller keeps ownership of the buffer. (Store.Load uses the zero-copy
// variant over a private file mapping instead.)
func Decode(data []byte, model *dataflow.Model) (*core.PrivacyLTS, error) {
	return decode(data, model, false)
}

// Fingerprint verifies an artifact's framing and checksum and returns the
// embedded model fingerprint, without rebuilding the model.
func Fingerprint(data []byte) (string, error) {
	secs, err := parseSections(data)
	if err != nil {
		return "", err
	}
	mt, err := parseMeta(secs[secMeta], len(data))
	if err != nil {
		return "", err
	}
	return mt.fingerprint, nil
}

type meta struct {
	numStates, numEdges, numLabels, numStrings int
	wordsPerVec, numActors, numFields          int
	numWarnings                                int
	initial                                    int32
	fingerprint                                string
}

// decode is the shared implementation. With zeroCopy set, flat int32/int64
// sections alias the data (the caller guarantees the buffer outlives the
// model — Store.Load never unmaps a successfully decoded artifact); otherwise
// everything is copied out. Either way the sections go to lts.RestoreCompiled
// and core.RestorePrivacyLTS as they are — the model's in-memory shape is the
// artifact's — so no per-state map or adjacency list is rebuilt.
func decode(data []byte, model *dataflow.Model, zeroCopy bool) (*core.PrivacyLTS, error) {
	secs, err := parseSections(data)
	if err != nil {
		return nil, err
	}
	mt, err := parseMeta(secs[secMeta], len(data))
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

	strs, err := parseStrings(secs[secStrings], mt.numStrings)
	if err != nil {
		return nil, err
	}
	ref := func(r uint32) (string, error) {
		if int64(r) >= int64(len(strs)) {
			return "", corruptf("string reference %d out of range [0, %d)", r, len(strs))
		}
		return strs[r], nil
	}

	// States.
	sr := &reader{name: "states", b: secs[secStates]}
	stateRefs, err := sr.u32s(mt.numStates)
	if err != nil {
		return nil, err
	}
	if err := sr.done(); err != nil {
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
	er := &reader{name: "edges", b: secs[secEdges], alias: zeroCopy}
	edgeFrom, err1 := er.i32s(mt.numEdges)
	edgeTo, err2 := er.i32s(mt.numEdges)
	edgeLabelPtr, err3 := er.i32s(mt.numEdges)
	if err := firstErr(err1, err2, err3, er.done()); err != nil {
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
	cr := &reader{name: "csr", b: secs[secCSR], alias: zeroCopy}
	outOff, err1 := cr.i32s(mt.numStates + 1)
	inOff, err2 := cr.i32s(mt.numStates + 1)
	outEdges, err3 := cr.i32s(mt.numEdges)
	inEdges, err4 := cr.i32s(mt.numEdges)
	if err := firstErr(err1, err2, err3, err4, cr.done()); err != nil {
		return nil, err
	}

	// Vectors.
	vr := &reader{name: "vectors", b: secs[secVectors], alias: zeroCopy}
	vecWords, err := vr.u64s(mt.numStates * mt.wordsPerVec)
	if err := firstErr(err, vr.done()); err != nil {
		return nil, err
	}

	// Stores.
	tr := &reader{name: "stores", b: secs[secStores]}
	storeOff, err := tr.u32s(mt.numStates + 1)
	if err != nil {
		return nil, err
	}
	if len(tr.b[tr.off:])%4 != 0 {
		return nil, corruptf("stores section has %d trailing bytes", len(tr.b[tr.off:])%4)
	}
	recs, err := tr.u32s((len(tr.b) - tr.off) / 4)
	if err := firstErr(err, tr.done()); err != nil {
		return nil, err
	}

	// Vocabulary and warnings.
	wr := &reader{name: "vocab", b: secs[secVocab]}
	actorRefs, err1 := wr.u32s(mt.numActors)
	fieldRefs, err2 := wr.u32s(mt.numFields)
	warnRefs, err3 := wr.u32s(mt.numWarnings)
	if err := firstErr(err1, err2, err3, wr.done()); err != nil {
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
// the payload of each section.
func parseSections(data []byte) (map[uint32][]byte, error) {
	if len(data) < headerSize {
		return nil, corruptf("%d bytes is shorter than the %d-byte header", len(data), headerSize)
	}
	if string(data[:8]) != magic {
		return nil, corruptf("bad magic")
	}
	version := binary.LittleEndian.Uint32(data[8:])
	if version > FormatVersion {
		return nil, fmt.Errorf("%w (artifact v%d, build understands v%d)", ErrFutureVersion, version, FormatVersion)
	}
	if version != FormatVersion {
		return nil, corruptf("unknown format version %d", version)
	}
	if size := binary.LittleEndian.Uint64(data[16:]); size != uint64(len(data)) {
		return nil, corruptf("header says %d bytes, artifact has %d", size, len(data))
	}
	if sum := checksumOf(data); string(sum[:]) != string(data[checksumOff:checksumOff+checksumSize]) {
		return nil, corruptf("checksum mismatch")
	}
	count := binary.LittleEndian.Uint32(data[12:])
	if int(count) != len(requiredSections) {
		return nil, corruptf("%d sections, format v1 has %d", count, len(requiredSections))
	}
	tableEnd := headerSize + len(requiredSections)*secEntrySize
	if len(data) < tableEnd {
		return nil, corruptf("section table truncated")
	}
	payloadStart := uint64(align8(tableEnd))
	secs := make(map[uint32][]byte, len(requiredSections))
	for i := 0; i < len(requiredSections); i++ {
		e := data[headerSize+i*secEntrySize:]
		id := binary.LittleEndian.Uint32(e)
		off := binary.LittleEndian.Uint64(e[8:])
		length := binary.LittleEndian.Uint64(e[16:])
		if _, dup := secs[id]; dup {
			return nil, corruptf("duplicate section %d", id)
		}
		if off%8 != 0 || off < payloadStart || off > uint64(len(data)) || length > uint64(len(data))-off {
			return nil, corruptf("section %d spans [%d, %d+%d) outside the artifact", id, off, off, length)
		}
		secs[id] = data[off : off+length : off+length]
	}
	for _, id := range requiredSections {
		if _, ok := secs[id]; !ok {
			return nil, corruptf("missing section %d", id)
		}
	}
	return secs, nil
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

// parseStrings materialises the interned string table: count+1 offsets
// followed by the concatenated blob. Entry 0 must be the empty string.
func parseStrings(sec []byte, count int) ([]string, error) {
	r := &reader{name: "strings", b: sec}
	offs, err := r.u32s(count + 1)
	if err != nil {
		return nil, err
	}
	blob := sec[r.off:]
	if count < 1 || offs[0] != 0 {
		return nil, corruptf("string table must start with the empty string")
	}
	if uint64(offs[count]) != uint64(len(blob)) {
		return nil, corruptf("string blob has %d bytes, offsets claim %d", len(blob), offs[count])
	}
	// Validate the whole offset array before materialising anything: pairwise
	// monotonicity alone would slice with a spiked upper bound before reaching
	// the entry where the sequence decreases again.
	for i := 0; i < count; i++ {
		if offs[i] > offs[i+1] {
			return nil, corruptf("string offsets decrease at entry %d", i)
		}
		if uint64(offs[i+1]) > uint64(len(blob)) {
			return nil, corruptf("string offset %d exceeds the %d-byte blob at entry %d", offs[i+1], len(blob), i)
		}
	}
	strs := make([]string, count)
	for i := 0; i < count; i++ {
		strs[i] = string(blob[offs[i]:offs[i+1]])
	}
	if strs[0] != "" {
		return nil, corruptf("string table must start with the empty string")
	}
	return strs, nil
}

// decodedLabel pairs a rebuilt label with its verified interned rendering.
type decodedLabel struct {
	label *core.TransitionLabel
	str   string
}

// parseLabels rebuilds the distinct transition labels from the column layout
// and verifies each against its stored rendering.
func parseLabels(sec []byte, count int, ref func(uint32) (string, error)) ([]decodedLabel, error) {
	r := &reader{name: "labels", b: sec}
	action, err := r.i32s(count)
	if err != nil {
		return nil, err
	}
	flags, err := r.u32s(count)
	if err != nil {
		return nil, err
	}
	strRefs, err := r.u32s(7 * count)
	if err != nil {
		return nil, err
	}
	fieldsOff, err := r.u32s(count + 1)
	if err != nil {
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
	fieldRefs, err := r.u32s(int(fieldsOff[count]))
	if err := firstErr(err, r.done()); err != nil {
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

// reader is a bounds-checked cursor over one section. With alias set (the
// mmap path on a little-endian host) the typed readers return slices that
// alias the underlying bytes when alignment allows; otherwise they copy and
// byte-swap via encoding/binary.
type reader struct {
	name  string
	b     []byte
	off   int
	alias bool
}

func (r *reader) take(n int) ([]byte, error) {
	if n < 0 || n > len(r.b)-r.off {
		return nil, corruptf("%s section truncated (need %d bytes at offset %d of %d)", r.name, n, r.off, len(r.b))
	}
	s := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return s, nil
}

func (r *reader) i32s(n int) ([]int32, error) {
	if n > math.MaxInt32 {
		return nil, corruptf("%s section claims %d entries", r.name, n)
	}
	raw, err := r.take(n * 4)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	if r.alias && hostLittleEndian && uintptr(unsafe.Pointer(&raw[0]))%4 == 0 {
		return unsafe.Slice((*int32)(unsafe.Pointer(&raw[0])), n), nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(raw[i*4:]))
	}
	return out, nil
}

func (r *reader) u32s(n int) ([]uint32, error) {
	vs, err := r.i32s(n)
	if err != nil {
		return nil, err
	}
	return *(*[]uint32)(unsafe.Pointer(&vs)), nil
}

func (r *reader) u64s(n int) ([]uint64, error) {
	if n > math.MaxInt32 {
		return nil, corruptf("%s section claims %d entries", r.name, n)
	}
	raw, err := r.take(n * 8)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	if r.alias && hostLittleEndian && uintptr(unsafe.Pointer(&raw[0]))%8 == 0 {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&raw[0])), n), nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(raw[i*8:])
	}
	return out, nil
}

func (r *reader) done() error {
	if r.off != len(r.b) {
		return corruptf("%s section has %d trailing bytes", r.name, len(r.b)-r.off)
	}
	return nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
