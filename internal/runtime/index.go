package runtime

import (
	"privascope/internal/core"
	"privascope/internal/lts"
	"privascope/internal/service"
)

// The transition index is the monitor's analogue of internal/core's compiled
// model: every per-transition decision that does not depend on the observed
// event is resolved once, when the monitor is created, so that matching an
// event against a state's outgoing transitions is a map lookup plus a couple
// of word operations instead of per-event string scans over labels.
//
// Transitions are bucketed per state by (action, actor, datastore); label
// field sets are packed into bit masks over the universe of fields appearing
// in any label, so "the event's fields are covered by the transition's
// fields" is evMask &^ labelMask == 0. Declared flows are kept apart from
// potential reads because declared matches take precedence, each partition
// preserving the LTS insertion order so the index matches exactly what a
// linear scan over Graph.Outgoing would have matched.

// eventKey buckets transitions by the exact-match components of an event.
type eventKey struct {
	action    core.Action
	actor     string
	datastore string
}

// indexedTransition is one outgoing edge with its precompiled field mask.
type indexedTransition struct {
	edge   int32
	fields fieldMask
}

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

// stateEntry partitions one state's outgoing transitions for one event key.
type stateEntry struct {
	declared  []indexedTransition
	potential []indexedTransition
}

// transitionIndex is immutable after newTransitionIndex returns and therefore
// read without a lock of its own.
type transitionIndex struct {
	fieldBits map[string]int
	words     int
	// graph maps the dense states and edges the monitor keeps to their IDs.
	graph *lts.LTS
	// states[denseState] buckets that state's outgoing transitions, nil for
	// states with none.
	states []map[eventKey]*stateEntry
}

// newTransitionIndex compiles the per-state event-matching tables of the
// privacy LTS, reading the model through its compiled view: labels are
// pre-resolved per edge and each state's outgoing transitions come straight
// from the CSR layout, so no transition or label is re-derived here.
func newTransitionIndex(p *core.PrivacyLTS) *transitionIndex {
	view := p.Compiled()
	c := view.Graph
	ix := &transitionIndex{
		fieldBits: make(map[string]int),
		graph:     c,
		states:    make([]map[eventKey]*stateEntry, c.StateCount()),
	}
	// First pass: the field universe, so mask widths are known up front.
	numEdges := c.TransitionCount()
	for e := 0; e < numEdges; e++ {
		label := view.Label(int32(e))
		if label == nil {
			continue
		}
		for _, f := range label.Fields {
			if _, ok := ix.fieldBits[f]; !ok {
				ix.fieldBits[f] = len(ix.fieldBits)
			}
		}
	}
	ix.words = (len(ix.fieldBits) + 63) / 64
	if ix.words == 0 {
		ix.words = 1
	}

	// Second pass: bucket each state's outgoing transitions in insertion
	// order, declared flows apart from potential reads.
	for s := 0; s < c.StateCount(); s++ {
		edges := c.Out(int32(s))
		if len(edges) == 0 {
			continue
		}
		entries := make(map[eventKey]*stateEntry)
		for _, e := range edges {
			label := view.Label(e)
			if label == nil {
				continue
			}
			key := eventKey{action: label.Action, actor: label.Actor, datastore: label.Datastore}
			entry, ok := entries[key]
			if !ok {
				entry = &stateEntry{}
				entries[key] = entry
			}
			mask := make(fieldMask, ix.words)
			for _, f := range label.Fields {
				mask.set(ix.fieldBits[f])
			}
			it := indexedTransition{edge: e, fields: mask}
			if label.Potential {
				entry.potential = append(entry.potential, it)
			} else {
				entry.declared = append(entry.declared, it)
			}
		}
		ix.states[s] = entries
	}
	return ix
}

// match finds the edge leaving the dense state s that the event takes: same
// action, actor and datastore, and the event's fields covered by the label's
// fields (a read of a subset of the modelled fields still matches). Declared
// flows are preferred over potential reads; within each partition the first
// insertion-order match wins, mirroring a linear scan of Graph.Outgoing.
func (ix *transitionIndex) match(s int32, ev *service.Event) (edge int32, ok bool) {
	if len(ev.Fields) == 0 {
		return -1, false
	}
	entries := ix.states[s]
	if entries == nil {
		return -1, false
	}
	entry := entries[eventKey{action: ev.Action, actor: ev.Actor, datastore: ev.Datastore}]
	if entry == nil {
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
	for _, it := range entry.declared {
		if it.fields.covers(evMask) {
			return it.edge, true
		}
	}
	for _, it := range entry.potential {
		if it.fields.covers(evMask) {
			return it.edge, true
		}
	}
	return -1, false
}
