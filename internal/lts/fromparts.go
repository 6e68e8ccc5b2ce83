package lts

import "fmt"

// BulkEdge is one transition of a bulk-constructed LTS, with endpoints given
// as dense indices into the state-ID list passed to FromParts.
type BulkEdge struct {
	From, To int32
	Label    Label
}

// Relabeled returns an LTS with the receiver's states, transitions and CSR
// layout in which transition i carries labels[i] (in Transitions order)
// instead of the receiver's label. Everything but the transition list and the
// label table is shared with the receiver, not copied. Incremental
// regeneration uses this to swap re-derived labels into a wholesale-reused
// exploration without rebuilding any index.
func (l *LTS) Relabeled(labels []Label) (*LTS, error) {
	c := *l.Compiled()
	if len(labels) != len(c.trs) {
		return nil, fmt.Errorf("lts: Relabeled: %d labels for %d transitions", len(labels), len(c.trs))
	}
	trs := make([]Transition, len(c.trs))
	for i, t := range c.trs {
		t.Label = labels[i]
		trs[i] = t
	}
	c.trs = trs
	c.internLabels()
	r := RestoreLTS(&c)
	r.props = l.props
	return r, nil
}

// FromParts builds an LTS in bulk from a dense state list and edge list, the
// shape exploration drivers naturally produce. The result equals calling
// AddState for every ID in order, SetInitial, and AddTransitionUnchecked for
// every edge in order, but it is born compiled: the CSR view is built straight
// from the dense endpoints, every distinct label object is rendered once, and
// Compiled returns that view without any further work.
//
// ids must be distinct and is retained, not copied; edge endpoints must index
// into ids. initial is the index of the initial state, or -1 for none.
func FromParts(ids []StateID, initial int, edges []BulkEdge) (*LTS, error) {
	n, m := len(ids), len(edges)
	if initial < -1 || initial >= n {
		return nil, fmt.Errorf("lts: FromParts: initial index %d out of range", initial)
	}
	c := &Compiled{
		states:   ids,
		ids:      make(map[StateID]int32, n),
		initial:  int32(initial),
		trs:      make([]Transition, m),
		edgeFrom: make([]int32, m),
		edgeTo:   make([]int32, m),
	}
	for s, id := range ids {
		c.ids[id] = int32(s)
		if len(c.ids) <= s { // the assignment overwrote an entry: one probe finds a duplicate
			return nil, fmt.Errorf("lts: FromParts: duplicate state ID %q", id)
		}
	}
	for i, e := range edges {
		if e.From < 0 || int(e.From) >= n || e.To < 0 || int(e.To) >= n {
			return nil, fmt.Errorf("lts: FromParts: edge %d endpoints (%d, %d) out of range", i, e.From, e.To)
		}
		c.trs[i] = Transition{From: ids[e.From], To: ids[e.To], Label: e.Label}
		c.edgeFrom[i], c.edgeTo[i] = e.From, e.To
	}
	c.internLabels()
	c.buildCSR()
	return RestoreLTS(c), nil
}
