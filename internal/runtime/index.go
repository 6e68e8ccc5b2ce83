package runtime

import (
	"privascope/internal/core"
	"privascope/internal/service"
)

// The transition index is the monitor's side of the model's compiled view
// (core.CompiledView): an edge's class fixes its label, so everything
// matching needs of an edge that does not depend on the observed event is
// resolved once per class, when the monitor is created, and nothing per state
// or per edge.
//
// Each class label's field set is packed into a bit mask over the universe of
// fields appearing in any class label, so "the event's fields are covered by
// the transition's fields" is evMask &^ labelMask == 0. Matching walks the
// user's state's outgoing edges in CSR order and compares each edge's class
// label with the event; declared flows take precedence over potential reads,
// and within each the first edge wins, so the index matches exactly what a
// linear scan over Graph.Outgoing would have matched.

// fieldMask is a fixed-width bitset over the index's field universe.
type fieldMask []uint64

func (m fieldMask) set(bit int) { m[bit/64] |= 1 << uint(bit%64) }

// covers reports whether every bit of ev is also set in m.
func (m fieldMask) covers(ev fieldMask) bool {
	for w, bits := range ev {
		if bits&^m[w] != 0 {
			return false
		}
	}
	return true
}

// transitionIndex is immutable after newTransitionIndex returns and therefore
// read without a lock of its own.
type transitionIndex struct {
	view      *core.CompiledView
	fieldBits map[string]int
	words     int
	// masks holds class c's label field mask at [c*words, (c+1)*words).
	masks []uint64
}

// newTransitionIndex compiles the field mask of every edge class of the
// privacy LTS's compiled view.
func newTransitionIndex(p *core.PrivacyLTS) *transitionIndex {
	view := p.Compiled()
	classes := view.Classes()
	ix := &transitionIndex{view: view, fieldBits: make(map[string]int)}
	for c := range classes {
		for _, f := range classes[c].Label.Fields {
			if _, ok := ix.fieldBits[f]; !ok {
				ix.fieldBits[f] = len(ix.fieldBits)
			}
		}
	}
	ix.words = max(1, (len(ix.fieldBits)+63)/64)
	ix.masks = make([]uint64, len(classes)*ix.words)
	for c := range classes {
		mask := ix.mask(int32(c))
		for _, f := range classes[c].Label.Fields {
			mask.set(ix.fieldBits[f])
		}
	}
	return ix
}

// mask returns class c's label field mask.
func (ix *transitionIndex) mask(c int32) fieldMask {
	return ix.masks[int(c)*ix.words : int(c+1)*ix.words]
}

// match finds the edge leaving the dense state s that the event takes: same
// action, actor and datastore, and the event's fields covered by the label's
// fields (a read of a subset of the modelled fields still matches). The first
// declared flow in CSR order wins; failing one, the first potential read.
func (ix *transitionIndex) match(s int32, ev *service.Event) (edge int32, ok bool) {
	if len(ev.Fields) == 0 {
		return -1, false
	}
	var stack [4]uint64
	var evMask fieldMask
	if ix.words <= len(stack) {
		evMask = stack[:ix.words]
	} else {
		evMask = make(fieldMask, ix.words)
	}
	for _, f := range ev.Fields {
		bit, ok := ix.fieldBits[f]
		if !ok {
			// A field no label mentions: nothing can cover it.
			return -1, false
		}
		evMask.set(bit)
	}
	potential := int32(-1)
	for _, e := range ix.view.Graph.Out(s) {
		c := ix.view.Class(e)
		if c < 0 {
			continue
		}
		label := ix.view.Classes()[c].Label
		if label.Action != ev.Action || label.Actor != ev.Actor || label.Datastore != ev.Datastore || !ix.mask(c).covers(evMask) {
			continue
		}
		if !label.Potential {
			return e, true
		}
		if potential < 0 {
			potential = e
		}
	}
	return potential, potential >= 0
}
