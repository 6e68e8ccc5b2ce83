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
	// Labels is the label table: the distinct non-nil labels by identity, in
	// order of their first transition. LabelStrs[i] renders Labels[i].
	Labels    []Label
	LabelStrs []string
	// EdgeLabel, EdgeFrom and EdgeTo are per transition: its label's index
	// into Labels (-1 for a nil label) and its dense endpoint states.
	EdgeLabel, EdgeFrom, EdgeTo []int32
}

// Parts returns the flat sections of the LTS. The returned slices alias the
// LTS and must not be modified.
func (l *LTS) Parts() CompiledParts {
	return CompiledParts{
		NumStates: len(l.states),
		Initial:   l.initial,
		Labels:    l.labels,
		LabelStrs: l.labelStrs,
		EdgeLabel: l.edgeLabel,
		EdgeFrom:  l.edgeFrom,
		EdgeTo:    l.edgeTo,
	}
}

// RestoreCompiled rebuilds an LTS from previously exported parts. It checks
// the section lengths, the initial state, every endpoint and the label
// table: each transition's index is -1 or an entry, the entries are
// referenced in first-occurrence order and each at least once, and none is
// nil — the table FromParts builds from distinct labels. It derives the
// state IDs and both CSR layouts as FromParts does. It never panics on
// malformed parts; the first violated invariant is returned as an error. The
// slices are retained, not copied — callers hand over ownership (the model
// store passes the slices it decoded out of an artifact).
func RestoreCompiled(p CompiledParts) (*LTS, error) {
	m := len(p.EdgeLabel)
	if len(p.EdgeFrom) != m || len(p.EdgeTo) != m {
		return nil, fmt.Errorf("lts: restore: edge arrays have %d/%d/%d entries",
			len(p.EdgeLabel), len(p.EdgeFrom), len(p.EdgeTo))
	}
	if len(p.Labels) != len(p.LabelStrs) {
		return nil, fmt.Errorf("lts: restore: %d labels but %d label strings", len(p.Labels), len(p.LabelStrs))
	}
	next := int32(0) // the entry a transition's first new label must be
	for e, lid := range p.EdgeLabel {
		if lid < -1 || lid > next || int(lid) >= len(p.Labels) {
			return nil, fmt.Errorf("lts: restore: transition %d label index %d, want -1 to %d of %d labels",
				e, lid, min(next, int32(len(p.Labels))-1), len(p.Labels))
		}
		if lid == next {
			next++
		}
	}
	if int(next) != len(p.Labels) {
		return nil, fmt.Errorf("lts: restore: transitions reference %d of %d labels", next, len(p.Labels))
	}
	for i, label := range p.Labels {
		if label == nil {
			return nil, fmt.Errorf("lts: restore: label %d is nil", i)
		}
	}
	l := &LTS{
		labels:    p.Labels,
		labelStrs: p.LabelStrs,
		edgeLabel: p.EdgeLabel,
		edgeFrom:  p.EdgeFrom,
		edgeTo:    p.EdgeTo,
	}
	if err := l.derive(p.NumStates, int(p.Initial)); err != nil {
		return nil, fmt.Errorf("lts: restore: %w", err)
	}
	return l, nil
}
