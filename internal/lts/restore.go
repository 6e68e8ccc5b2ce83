package lts

import "fmt"

// CompiledParts is the flat data of an LTS, exposed so the on-disk model
// store (internal/modelstore) can serialise the graph and rebuild it without
// re-rendering any label string. State IDs and the CSR layouts are not part
// of it: both constructors derive them from the state count and the edges.
// Every slice aliases the LTS's internal layout and must be treated as
// immutable.
type CompiledParts struct {
	// NumStates is the number of states; state i is "s<i>".
	NumStates int
	// Initial is the dense initial state, -1 when none was set.
	Initial int32
	// EdgeLabels holds each transition's Label, indexed by transition index;
	// EdgeLabels[e] renders LabelStrs[EdgeLabel[e]].
	EdgeLabels []Label
	// Labels and LabelStrs are the interned label table: LabelStrs[i] is the
	// label string and Labels[i] the first Label value encountered rendering
	// it (possibly nil).
	Labels    []Label
	LabelStrs []string
	// EdgeLabel, EdgeFrom and EdgeTo are the per-transition label index and
	// dense endpoint states.
	EdgeLabel, EdgeFrom, EdgeTo []int32
}

// Parts returns the flat sections of the LTS. The returned slices alias the
// LTS and must not be modified.
func (l *LTS) Parts() CompiledParts {
	return CompiledParts{
		NumStates:  len(l.states),
		Initial:    l.initial,
		EdgeLabels: l.edgeLabels,
		Labels:     l.labels,
		LabelStrs:  l.labelStrs,
		EdgeLabel:  l.edgeLabel,
		EdgeFrom:   l.edgeFrom,
		EdgeTo:     l.edgeTo,
	}
}

// RestoreCompiled rebuilds an LTS from previously exported parts. It checks
// the section lengths, the initial state and every endpoint and label index,
// and derives the state IDs and both CSR layouts as FromParts does. It never
// panics on malformed parts; the first violated invariant is returned as an
// error. The slices are retained, not copied — callers hand over ownership
// (the model store passes the slices it decoded out of an artifact).
//
// Consistency of EdgeLabels with EdgeLabel is the caller's contract (the model
// store derives both from one label table); it is not re-verified here
// because it would re-render or re-compare every label string.
func RestoreCompiled(p CompiledParts) (*LTS, error) {
	m := len(p.EdgeLabels)
	if len(p.EdgeLabel) != m || len(p.EdgeFrom) != m || len(p.EdgeTo) != m {
		return nil, fmt.Errorf("lts: restore: edge arrays have %d/%d/%d entries, want %d",
			len(p.EdgeLabel), len(p.EdgeFrom), len(p.EdgeTo), m)
	}
	if len(p.Labels) != len(p.LabelStrs) {
		return nil, fmt.Errorf("lts: restore: %d labels but %d label strings", len(p.Labels), len(p.LabelStrs))
	}
	for e, lid := range p.EdgeLabel {
		if lid < 0 || int(lid) >= len(p.Labels) {
			return nil, fmt.Errorf("lts: restore: transition %d label index %d out of range [0, %d)", e, lid, len(p.Labels))
		}
	}
	l := &LTS{
		edgeLabels: p.EdgeLabels,
		labels:     p.Labels,
		labelStrs:  p.LabelStrs,
		edgeLabel:  p.EdgeLabel,
		edgeFrom:   p.EdgeFrom,
		edgeTo:     p.EdgeTo,
	}
	if err := l.derive(p.NumStates, int(p.Initial)); err != nil {
		return nil, fmt.Errorf("lts: restore: %w", err)
	}
	return l, nil
}
