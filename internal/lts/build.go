package lts

import (
	"fmt"
	"math"
	"reflect"
)

// BulkEdge is one transition of a bulk-constructed LTS, with endpoints given
// as dense state indices.
type BulkEdge struct {
	From, To int32
	Label    Label
}

// FromParts builds an LTS of n states from an edge list, the shape
// exploration drivers naturally produce: state i is "s<i>", transition i is
// edges[i], and both CSR layouts are built straight from the dense endpoints,
// rendering every distinct label object once. initial is the index of the
// initial state, or -1 for none.
func FromParts(n, initial int, edges []BulkEdge) (*LTS, error) {
	m := len(edges)
	l := &LTS{edgeFrom: make([]int32, m), edgeTo: make([]int32, m)}
	for i, e := range edges {
		l.edgeFrom[i], l.edgeTo[i] = e.From, e.To
	}
	if err := l.derive(n, initial); err != nil {
		return nil, fmt.Errorf("lts: FromParts: %w", err)
	}
	l.internLabels(m, func(i int) Label { return edges[i].Label })
	return l, nil
}

// derive completes an LTS whose per-edge arrays are set: it checks the state
// count, the initial state and every endpoint against n, then names the n
// states and lays out both CSR directions — the one way either constructor
// arrives at them.
func (l *LTS) derive(n, initial int) error {
	if n < 0 || n > math.MaxInt32 {
		return fmt.Errorf("state count %d out of range", n)
	}
	if initial < -1 || initial >= n {
		return fmt.Errorf("initial state %d out of range [-1, %d)", initial, n)
	}
	for e := range l.edgeFrom {
		if from, to := l.edgeFrom[e], l.edgeTo[e]; from < 0 || int(from) >= n || to < 0 || int(to) >= n {
			return fmt.Errorf("transition %d endpoints (%d, %d) out of range [0, %d)", e, from, to, n)
		}
	}
	l.states, l.initial = canonicalIDs(n), int32(initial)
	l.buildCSR()
	return nil
}

// Relabeled returns an LTS with the receiver's states, transitions and CSR
// layout in which transition i carries labels[i] (in Transitions order)
// instead of the receiver's label. Everything but the label table is shared
// with the receiver; labels is read, not retained. Incremental regeneration
// uses this to swap re-derived labels into a wholesale-reused exploration
// without rebuilding any index.
func (l *LTS) Relabeled(labels []Label) (*LTS, error) {
	if len(labels) != len(l.edgeLabel) {
		return nil, fmt.Errorf("lts: Relabeled: %d labels for %d transitions", len(labels), len(l.edgeLabel))
	}
	r := *l
	r.internLabels(len(labels), func(i int) Label { return labels[i] })
	return &r, nil
}

// internLabels builds the label table from transition i's label labelOf(i):
// labels intern by identity (interface equality) in first-occurrence order,
// each entry is rendered once, a label whose type cannot be compared gets an
// entry of its own, and nil is -1. Generated models share one object per
// distinct label, so their tables hold a few dozen entries.
func (l *LTS) internLabels(m int, labelOf func(int) Label) {
	l.labels, l.labelStrs = nil, nil // a Relabeled copy must not append to its receiver's table
	l.edgeLabel = make([]int32, m)
	ids := make(map[Label]int32)
	for i := range m {
		label := labelOf(i)
		if label == nil {
			l.edgeLabel[i] = -1
			continue
		}
		// Only comparable label types can key a map.
		hashable := reflect.TypeOf(label).Comparable()
		if hashable {
			if lid, ok := ids[label]; ok {
				l.edgeLabel[i] = lid
				continue
			}
		}
		lid := int32(len(l.labels))
		if hashable {
			ids[label] = lid
		}
		l.labels = append(l.labels, label)
		l.labelStrs = append(l.labelStrs, label.LabelString())
		l.edgeLabel[i] = lid
	}
}

// buildCSR lays the transitions out in both CSR directions from edgeFrom and
// edgeTo — the one counting sort of the package: a pass to count degrees, a
// prefix sum, and a stable fill (ascending transition index preserves
// insertion order within each source/target).
func (l *LTS) buildCSR() {
	n, m := len(l.states), len(l.edgeFrom)
	l.outOff = make([]int32, n+1)
	l.inOff = make([]int32, n+1)
	for i := 0; i < m; i++ {
		l.outOff[l.edgeFrom[i]+1]++
		l.inOff[l.edgeTo[i]+1]++
	}
	for s := 0; s < n; s++ {
		l.outOff[s+1] += l.outOff[s]
		l.inOff[s+1] += l.inOff[s]
	}
	l.outEdges = make([]int32, m)
	l.inEdges = make([]int32, m)
	outNext := append([]int32(nil), l.outOff[:n]...)
	inNext := append([]int32(nil), l.inOff[:n]...)
	for i := 0; i < m; i++ {
		from, to := l.edgeFrom[i], l.edgeTo[i]
		l.outEdges[outNext[from]] = int32(i)
		outNext[from]++
		l.inEdges[inNext[to]] = int32(i)
		inNext[to]++
	}
}
