package core

import (
	"context"
	"math/bits"
	"strings"

	"privascope/internal/lts"
)

// CompiledView is the analysis-side compilation of a PrivacyLTS: the CSR
// graph (lts.Compiled) plus everything the disclosure analyses would
// otherwise re-derive per transition per profile, resolved once per model —
// the TransitionLabel of every edge (no type assertions on the hot path) and
// the profile-independent state-vector delta of every edge as dense
// (actor index, field index, kind) triples, so an analysis never resolves a
// state ID or allocates Variable slices while walking the model.
//
// A CompiledView is immutable and shared: PrivacyLTS.Compiled builds it at
// most once per model (single-flighted), and the Engine's fingerprint-keyed
// model cache means every Assess/Analyze/AssessPopulation/Monitor call on the
// same model shares one view.
type CompiledView struct {
	// Graph is the CSR compilation of the privacy LTS.
	Graph *lts.Compiled

	labels    []*TransitionLabel // per edge; nil for foreign label types
	potential int                // edges whose label is a potential read
	fieldsCSV []string           // per edge; the label's fields joined with ", "
	changes   []EdgeChange       // every edge's newly set variables, back to back
	changeOff []int32            // edge e's are changes[changeOff[e]:changeOff[e+1]]
	actors    []string           // vocabulary order (sorted)
	fields    []string
}

// EdgeChange is one state variable a transition newly sets, with the actor
// and field resolved to vocabulary indices (ascending index order equals the
// vocabulary's sorted name order).
type EdgeChange struct {
	Actor int32
	Field int32
	Kind  VarKind
}

// Label returns the TransitionLabel of the edge (nil when the transition
// carries a foreign label type).
func (v *CompiledView) Label(e int32) *TransitionLabel { return v.labels[e] }

// FieldsJoined returns the edge label's field list joined with ", " (empty
// for foreign labels), resolved once per model so per-finding report
// rendering never re-joins it.
func (v *CompiledView) FieldsJoined(e int32) string { return v.fieldsCSV[e] }

// Changes returns the state variables the edge newly sets relative to its
// source state, in vocabulary bit order. The slice is shared and must not be
// modified.
func (v *CompiledView) Changes(e int32) []EdgeChange {
	return v.changes[v.changeOff[e]:v.changeOff[e+1]:v.changeOff[e+1]]
}

// Actors returns the vocabulary's actors in sorted order. The slice is shared
// and must not be modified.
func (v *CompiledView) Actors() []string { return v.actors }

// Fields returns the vocabulary's fields in sorted order. The slice is shared
// and must not be modified.
func (v *CompiledView) Fields() []string { return v.fields }

// Compiled returns the compiled analysis view of the privacy LTS, building it
// at most once for the model's lifetime: concurrent first callers are
// single-flighted onto one compilation and every later caller shares the
// result.
//
// The view is pinned forever: a PrivacyLTS is immutable once generated (the
// same invariant the identity-keyed risk.AssessmentCache already relies on),
// so mutating p.Graph after the first analysis is unsupported and would
// leave this view — like any previously cached assessment — stale.
func (p *PrivacyLTS) Compiled() *CompiledView {
	v, _ := p.compiled.Do(context.Background(), struct{}{},
		func(context.Context) (*CompiledView, error) {
			return newCompiledView(p), nil
		})
	return v
}

// newCompiledView resolves the per-edge labels and vector deltas of the
// model.
func newCompiledView(p *PrivacyLTS) *CompiledView {
	c := p.Graph.Compiled()
	m := c.NumEdges()
	v := &CompiledView{
		Graph:     c,
		labels:    make([]*TransitionLabel, m),
		fieldsCSV: make([]string, m),
		changeOff: make([]int32, m+1),
		actors:    p.Vocab.actors,
		fields:    p.Vocab.fields,
	}
	// Labels are shared across edges (one per declared flow), so joined field
	// lists are memoised per label pointer.
	joined := make(map[*TransitionLabel]string)
	// Matching ChangeOf: an edge whose source or target has no vector
	// contributes no change.
	numFields, numVecs, wpv := len(v.fields), len(p.stores), p.Vocab.wordsPerVec
	hasVectors := func(e int) (to, from int, ok bool) {
		to, from = int(c.To(int32(e))), int(c.From(int32(e)))
		return to, from, to < numVecs && from < numVecs
	}
	numChanges := 0
	for e := 0; e < m; e++ {
		tr := c.TransitionAt(int32(e))
		if label, ok := tr.Label.(*TransitionLabel); ok {
			v.labels[e] = label
			if label.Potential {
				v.potential++
			}
			csv, ok := joined[label]
			if !ok {
				csv = strings.Join(label.Fields, ", ")
				joined[label] = csv
			}
			v.fieldsCSV[e] = csv
		}
		if to, from, ok := hasVectors(e); ok {
			for w := 0; w < wpv; w++ {
				numChanges += bits.OnesCount64(p.vecWords[to*wpv+w] &^ p.vecWords[from*wpv+w])
			}
		}
	}
	// Sized exactly: grown by append, the list is copied five times over.
	v.changes = make([]EdgeChange, 0, numChanges)
	for e := 0; e < m; e++ {
		if to, from, ok := hasVectors(e); ok {
			v.changes = appendEdgeChanges(v.changes, p.vectorAt(to), p.vectorAt(from), numFields)
		}
		v.changeOff[e+1] = int32(len(v.changes))
	}
	return v
}

// appendEdgeChanges appends the newly-true variables of to relative to from
// as dense index triples, in vocabulary bit order (matching
// StateVector.NewlyTrue).
func appendEdgeChanges(out []EdgeChange, to, from StateVector, numFields int) []EdgeChange {
	if numFields == 0 {
		return out
	}
	for w := range to.words {
		diff := to.words[w]
		if w < len(from.words) {
			diff &^= from.words[w]
		}
		for diff != 0 {
			bit := w*64 + bits.TrailingZeros64(diff)
			diff &= diff - 1
			if bit >= to.vocab.numVars {
				break
			}
			kind := HasIdentified
			if bit&1 == 1 {
				kind = CouldIdentify
			}
			pair := bit >> 1
			out = append(out, EdgeChange{
				Actor: int32(pair / numFields),
				Field: int32(pair % numFields),
				Kind:  kind,
			})
		}
	}
	return out
}
