package core

import (
	"context"
	"math/bits"

	"privascope/internal/lts"
)

// CompiledView is the analysis-side compilation of a PrivacyLTS: the CSR
// graph (lts.LTS) plus everything the disclosure analyses would
// otherwise re-derive per transition per profile, resolved once per model.
// Edges repeat: a declared flow or potential read fires in many states, and
// most of its firings newly set the same state variables. So the view
// hash-conses every labelled edge into an edge class — one TransitionLabel
// (by identity) and one profile-independent state-vector delta, resolved to
// dense (actor index, field index, kind) triples — and an analysis does its
// per-profile work once per class, not once per edge.
//
// A CompiledView is immutable and shared: PrivacyLTS.Compiled builds it at
// most once per model (single-flighted), and the Engine's fingerprint-keyed
// model cache means every Assess/Analyze/AssessPopulation/Monitor call on the
// same model shares one view.
type CompiledView struct {
	// Graph is the privacy LTS's graph (p.Graph), which the per-edge class
	// table is indexed by.
	Graph *lts.LTS

	class   []int32 // per edge: its index into classes, -1 for foreign label types
	classes []EdgeClass
	actors  []string // vocabulary order (sorted)
	fields  []string
}

// EdgeClass is the set of labelled edges that carry one TransitionLabel and
// newly set one set of state variables.
type EdgeClass struct {
	Label *TransitionLabel
	// Changes are the state variables each edge of the class newly sets
	// relative to its source state, in vocabulary bit order (so actor-major).
	// The slice is shared and must not be modified.
	Changes []EdgeChange
	// Count is the number of edges in the class and First the lowest of them.
	Count, First int32
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
func (v *CompiledView) Label(e int32) *TransitionLabel {
	if c := v.class[e]; c >= 0 {
		return v.classes[c].Label
	}
	return nil
}

// Class returns the index into Classes of the edge's class, -1 when the
// transition carries a foreign label type.
func (v *CompiledView) Class(e int32) int32 { return v.class[e] }

// Classes returns the edge classes in order of their first edge. The slice
// is shared and must not be modified.
func (v *CompiledView) Classes() []EdgeClass { return v.classes }

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
// The view is pinned forever, and that is sound because nothing can change
// what it was built from: an lts.LTS has no mutators, and the per-state
// payloads are private. The identity-keyed risk.AssessmentCache relies on the
// same guarantee.
func (p *PrivacyLTS) Compiled() *CompiledView {
	v, _ := p.compiled.Do(context.Background(), struct{}{},
		func(context.Context) (*CompiledView, error) {
			return newCompiledView(p), nil
		})
	return v
}

// newCompiledView interns the labelled edges of the model into edge classes.
// A class is keyed by its label's identity and its state-vector delta (the
// target vector's words less the source's) and found through one
// open-addressed table, so at worst every edge is its own class and costs a
// probe more than resolving it alone. Every table is sized before it is
// filled: nothing is allocated per edge or per class.
func newCompiledView(p *PrivacyLTS) *CompiledView {
	parts := p.Graph.Parts()
	m := len(parts.EdgeLabel)
	v := &CompiledView{
		Graph:  p.Graph,
		class:  make([]int32, m),
		actors: p.Vocab.actors,
		fields: p.Vocab.fields,
	}
	wpv := p.Vocab.wordsPerVec
	vectors := func(e int32) (to, from []uint64) {
		t, f := int(parts.EdgeTo[e])*wpv, int(parts.EdgeFrom[e])*wpv
		return p.vecWords[t : t+wpv], p.vecWords[f : f+wpv]
	}
	// A slot holds a class's first edge plus one (0: empty). The graph
	// interns labels by identity, so a label's table index stands for it in
	// the hash and the comparison. At most m classes fill at most half the
	// table.
	table := make([]int32, 1<<bits.Len(uint(2*m)))
	mask := uint64(len(table) - 1)
	numClasses, numChanges := int32(0), 0
	for e := range int32(m) {
		lid := parts.EdgeLabel[e]
		if _, ok := labelAt(parts, e); !ok {
			v.class[e] = -1
			continue
		}
		to, from := vectors(e)
		h := uint64(lid) + 1
		for w, word := range to {
			h = (h ^ word&^from[w]) * 0x9e3779b97f4a7c15
		}
		h ^= h >> 32
		for slot := h & mask; ; slot = (slot + 1) & mask {
			first := table[slot] - 1
			if first < 0 {
				table[slot], v.class[e] = e+1, numClasses
				numClasses++
				for w, word := range to {
					numChanges += bits.OnesCount64(word &^ from[w])
				}
				break
			}
			firstTo, firstFrom := vectors(first)
			same := parts.EdgeLabel[first] == lid
			for w := 0; same && w < wpv; w++ {
				same = to[w]&^from[w] == firstTo[w]&^firstFrom[w]
			}
			if same {
				v.class[e] = v.class[first]
				break
			}
		}
	}

	v.classes = make([]EdgeClass, numClasses)
	for e, c := range v.class {
		if c < 0 {
			continue
		}
		class := &v.classes[c]
		if class.Count == 0 {
			class.Label, _ = labelAt(parts, int32(e))
			class.First = int32(e)
		}
		class.Count++
	}
	// Every class's changes, in vocabulary bit order, in one slab.
	changes := make([]EdgeChange, 0, numChanges)
	numFields := len(v.fields)
	for c := range v.classes {
		start := len(changes)
		to, from := vectors(v.classes[c].First)
		for w, word := range to {
			for diff := word &^ from[w]; diff != 0; diff &= diff - 1 {
				bit := w*64 + bits.TrailingZeros64(diff)
				if bit >= p.Vocab.numVars {
					break
				}
				kind := HasIdentified
				if bit&1 == 1 {
					kind = CouldIdentify
				}
				pair := bit >> 1
				changes = append(changes, EdgeChange{Actor: int32(pair / numFields), Field: int32(pair % numFields), Kind: kind})
			}
		}
		v.classes[c].Changes = changes[start:len(changes):len(changes)]
	}
	return v
}

// labelAt returns edge e's label from the graph's label table; ok is false
// for a nil label or a foreign label type.
func labelAt(parts lts.CompiledParts, e int32) (label *TransitionLabel, ok bool) {
	if lid := parts.EdgeLabel[e]; lid >= 0 {
		label, ok = parts.Labels[lid].(*TransitionLabel)
	}
	return label, ok
}
