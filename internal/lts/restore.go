package lts

import "fmt"

// CompiledParts is the flat data of an LTS, exposed so the on-disk model
// store (internal/modelstore) can serialise the graph and rebuild it without
// re-deriving anything — in particular without re-rendering any label string.
// Every slice aliases the LTS's internal layout and must be treated as
// immutable.
type CompiledParts struct {
	// States maps each dense index to its state ID, in insertion order.
	States []StateID
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
	// OutOff/OutEdges and InOff/InEdges are the forward and reverse CSR
	// layouts: the transitions leaving state s are
	// OutEdges[OutOff[s]:OutOff[s+1]], in ascending transition index.
	OutOff, OutEdges, InOff, InEdges []int32
}

// Parts returns the flat sections of the LTS. The returned slices alias the
// LTS and must not be modified.
func (l *LTS) Parts() CompiledParts {
	return CompiledParts{
		States:     l.states,
		Initial:    l.initial,
		EdgeLabels: l.edgeLabels,
		Labels:     l.labels,
		LabelStrs:  l.labelStrs,
		EdgeLabel:  l.edgeLabel,
		EdgeFrom:   l.edgeFrom,
		EdgeTo:     l.edgeTo,
		OutOff:     l.outOff,
		OutEdges:   l.outEdges,
		InOff:      l.inOff,
		InEdges:    l.inEdges,
	}
}

// RestoreCompiled rebuilds an LTS from previously exported parts, validating
// every structural invariant FromParts would have established:
// consistent section lengths, distinct state IDs (indexed as FromParts
// indexes them), in-range endpoint and label indices, and both CSR layouts
// partitioning the transitions with ascending indices per bucket. It never
// panics on malformed parts; the first violated invariant is returned as an
// error. The slices are retained, not copied — callers hand over ownership
// (the model store passes the slices it decoded out of an artifact).
//
// Consistency of EdgeLabels with EdgeLabel is the caller's contract (the model
// store derives both from one label table); it is not re-verified here
// because it would re-render or re-compare every label string.
func RestoreCompiled(p CompiledParts) (*LTS, error) {
	n, m := len(p.States), len(p.EdgeLabels)
	if len(p.EdgeLabel) != m || len(p.EdgeFrom) != m || len(p.EdgeTo) != m {
		return nil, fmt.Errorf("lts: restore: edge arrays have %d/%d/%d entries, want %d",
			len(p.EdgeLabel), len(p.EdgeFrom), len(p.EdgeTo), m)
	}
	if len(p.Labels) != len(p.LabelStrs) {
		return nil, fmt.Errorf("lts: restore: %d labels but %d label strings", len(p.Labels), len(p.LabelStrs))
	}
	if len(p.OutOff) != n+1 || len(p.InOff) != n+1 {
		return nil, fmt.Errorf("lts: restore: CSR offset arrays have %d/%d entries, want %d",
			len(p.OutOff), len(p.InOff), n+1)
	}
	if len(p.OutEdges) != m || len(p.InEdges) != m {
		return nil, fmt.Errorf("lts: restore: CSR edge arrays have %d/%d entries, want %d",
			len(p.OutEdges), len(p.InEdges), m)
	}
	if p.Initial < -1 || int(p.Initial) >= n {
		return nil, fmt.Errorf("lts: restore: initial state %d out of range [-1, %d)", p.Initial, n)
	}
	l := &LTS{
		states:     p.States,
		initial:    p.Initial,
		edgeLabels: p.EdgeLabels,
		labels:     p.Labels,
		labelStrs:  p.LabelStrs,
		edgeLabel:  p.EdgeLabel,
		edgeFrom:   p.EdgeFrom,
		edgeTo:     p.EdgeTo,
		outOff:     p.OutOff,
		outEdges:   p.OutEdges,
		inOff:      p.InOff,
		inEdges:    p.InEdges,
	}
	if err := l.indexStates(); err != nil {
		return nil, fmt.Errorf("lts: restore: %w", err)
	}
	for e, lid := range p.EdgeLabel {
		if lid < 0 || int(lid) >= len(p.Labels) {
			return nil, fmt.Errorf("lts: restore: transition %d label index %d out of range [0, %d)", e, lid, len(p.Labels))
		}
	}
	if err := checkCSR("outgoing", p.OutOff, p.OutEdges, p.EdgeFrom); err != nil {
		return nil, err
	}
	if err := checkCSR("incoming", p.InOff, p.InEdges, p.EdgeTo); err != nil {
		return nil, err
	}
	return l, nil
}

// checkCSR verifies one CSR layout against the per-edge endpoint array:
// offsets start at 0, end at the edge count and never decrease, and every
// bucket lists transition indices of its own state in ascending order. Since
// each transition has exactly one endpoint state per direction, the ascending
// in-range buckets summing to the edge count imply the layout is exactly a
// partition of all transitions — no index missing, none duplicated — and so
// that every endpoint is a state.
func checkCSR(name string, off, edges, endpoint []int32) error {
	m := int32(len(edges))
	if off[0] != 0 || off[len(off)-1] != m {
		return fmt.Errorf("lts: restore: %s CSR offsets span [%d, %d], want [0, %d]",
			name, off[0], off[len(off)-1], m)
	}
	for s := 0; s+1 < len(off); s++ {
		lo, hi := off[s], off[s+1]
		if lo > hi {
			return fmt.Errorf("lts: restore: %s CSR offsets decrease at state %d (%d > %d)", name, s, lo, hi)
		}
		prev := int32(-1)
		for _, e := range edges[lo:hi] {
			if e < 0 || e >= m {
				return fmt.Errorf("lts: restore: %s CSR lists transition %d, outside [0, %d)", name, e, m)
			}
			if e <= prev {
				return fmt.Errorf("lts: restore: %s CSR bucket of state %d not strictly ascending at transition %d", name, s, e)
			}
			if endpoint[e] != int32(s) {
				return fmt.Errorf("lts: restore: %s CSR bucket of state %d lists transition %d of state %d",
					name, s, e, endpoint[e])
			}
			prev = e
		}
	}
	return nil
}
