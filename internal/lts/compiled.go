package lts

import "reflect"

// Compiled is an immutable, cache-friendly compilation of an LTS: states are
// dense int32 indices (in insertion order), every distinct label string is
// interned into a table exactly once, and the transitions are laid out twice
// in compressed-sparse-row (CSR) form — grouped by source for outgoing
// traversal and by target for incoming traversal — as flat []int32 slices of
// transition indices. Every graph analysis in this package (reachability,
// shortest witness traces, simple-path enumeration, minimisation) and the
// LTS's own Outgoing/Incoming run on the compiled form: integer-indexed
// BFS/DFS over slices with bitset visited sets, no map lookups and no label
// rendering on the hot path.
//
// A Compiled is a snapshot: it shares the LTS's ID index, state list and
// transitions as they were when it was taken and never observes later
// mutations (the LTS copies before it writes, see LTS.edit). The LTS caches
// its compiled view (see LTS.Compiled) and drops it on mutation, so analyses
// transparently recompile after the builder changes. All methods are safe for
// concurrent use.
type Compiled struct {
	states  []StateID         // dense index -> state ID, insertion order
	ids     map[StateID]int32 // state ID -> dense index; the LTS's own map
	initial int32             // dense initial state, -1 when unset

	trs []Transition // the source transitions, insertion order

	labels    []Label  // interned label table; labels[i] is the first Label seen rendering labelStrs[i]
	labelStrs []string // labelStrs[i] == labels[i].LabelString() (resolved once, at compile time)
	edgeLabel []int32  // per transition -> index into the label table
	edgeFrom  []int32  // per transition -> dense source state
	edgeTo    []int32  // per transition -> dense target state

	outOff   []int32 // len NumStates+1; out-edges of s are outEdges[outOff[s]:outOff[s+1]]
	outEdges []int32 // transition indices grouped by source, insertion order within each source
	inOff    []int32
	inEdges  []int32

	maxOutDegree int
}

// Compile builds the CSR form of the LTS and caches it as the LTS's current
// view. Each distinct label is rendered exactly once into the interned table;
// analyses on the compiled form never call LabelString again.
func Compile(l *LTS) *Compiled {
	n := len(l.order)
	m := len(l.transitions)
	c := &Compiled{
		// Full-capacity reslices: later appends to the builder's slices can
		// never write into this snapshot's window.
		states:   l.order[:n:n],
		ids:      l.index,
		initial:  -1,
		trs:      l.transitions[:m:m],
		edgeFrom: make([]int32, m),
		edgeTo:   make([]int32, m),
	}
	if l.hasInitial {
		c.initial = c.ids[l.initial]
	}
	for i := range c.trs {
		c.edgeFrom[i] = c.ids[c.trs[i].From]
		c.edgeTo[i] = c.ids[c.trs[i].To]
	}
	c.internLabels()
	c.buildCSR()
	l.compiled.Store(c)
	return c
}

// internLabels derives the label table and the per-edge label index from the
// transitions: labels intern by rendered string in first-occurrence order,
// the table keeps the first Label value seen per string, and nil interns as
// "". A label object is rendered once, then found again by identity
// (generated models share one object per distinct label).
func (c *Compiled) internLabels() {
	c.labels, c.labelStrs = nil, nil
	c.edgeLabel = make([]int32, len(c.trs))
	byStr := make(map[string]int32)
	byObject := make(map[Label]int32)
	for i := range c.trs {
		label := c.trs[i].Label
		// Only comparable label types can key a map.
		hashable := label != nil && reflect.TypeOf(label).Comparable()
		if hashable {
			if lid, ok := byObject[label]; ok {
				c.edgeLabel[i] = lid
				continue
			}
		}
		str := labelString(label)
		lid, ok := byStr[str]
		if !ok {
			lid = int32(len(c.labels))
			byStr[str] = lid
			c.labels = append(c.labels, label)
			c.labelStrs = append(c.labelStrs, str)
		}
		if hashable {
			byObject[label] = lid
		}
		c.edgeLabel[i] = lid
	}
}

// buildCSR lays the transitions out in both CSR directions from edgeFrom and
// edgeTo — the one counting sort of the package: a pass to count degrees, a
// prefix sum, and a stable fill (ascending transition index preserves
// insertion order within each source/target).
func (c *Compiled) buildCSR() {
	n, m := len(c.states), len(c.trs)
	c.outOff = make([]int32, n+1)
	c.inOff = make([]int32, n+1)
	for i := 0; i < m; i++ {
		c.outOff[c.edgeFrom[i]+1]++
		c.inOff[c.edgeTo[i]+1]++
	}
	for s := 0; s < n; s++ {
		if d := int(c.outOff[s+1]); d > c.maxOutDegree {
			c.maxOutDegree = d
		}
		c.outOff[s+1] += c.outOff[s]
		c.inOff[s+1] += c.inOff[s]
	}
	c.outEdges = make([]int32, m)
	c.inEdges = make([]int32, m)
	outNext := append([]int32(nil), c.outOff[:n]...)
	inNext := append([]int32(nil), c.inOff[:n]...)
	for i := 0; i < m; i++ {
		from, to := c.edgeFrom[i], c.edgeTo[i]
		c.outEdges[outNext[from]] = int32(i)
		outNext[from]++
		c.inEdges[inNext[to]] = int32(i)
		inNext[to]++
	}
}

// NumStates returns the number of states.
func (c *Compiled) NumStates() int { return len(c.states) }

// NumEdges returns the number of transitions.
func (c *Compiled) NumEdges() int { return len(c.trs) }

// NumLabels returns the number of distinct label strings.
func (c *Compiled) NumLabels() int { return len(c.labels) }

// MaxOutDegree returns the largest number of transitions leaving any state.
func (c *Compiled) MaxOutDegree() int { return c.maxOutDegree }

// StateAt returns the state ID at the given dense index.
func (c *Compiled) StateAt(s int32) StateID { return c.states[s] }

// Index returns the dense index of the state ID.
func (c *Compiled) Index(id StateID) (int32, bool) {
	s, ok := c.ids[id]
	return s, ok
}

// InitialIndex returns the dense index of the initial state; ok is false when
// none was set at compile time.
func (c *Compiled) InitialIndex() (int32, bool) {
	if c.initial < 0 {
		return 0, false
	}
	return c.initial, true
}

// Out returns the transition indices leaving the state, in insertion order.
// The returned slice aliases the CSR layout and must not be modified.
func (c *Compiled) Out(s int32) []int32 { return c.outEdges[c.outOff[s]:c.outOff[s+1]] }

// In returns the transition indices entering the state, in insertion order.
// The returned slice aliases the CSR layout and must not be modified.
func (c *Compiled) In(s int32) []int32 { return c.inEdges[c.inOff[s]:c.inOff[s+1]] }

// OutDegree returns the number of transitions leaving the state.
func (c *Compiled) OutDegree(s int32) int { return int(c.outOff[s+1] - c.outOff[s]) }

// From returns the dense source state of the transition.
func (c *Compiled) From(e int32) int32 { return c.edgeFrom[e] }

// To returns the dense target state of the transition.
func (c *Compiled) To(e int32) int32 { return c.edgeTo[e] }

// LabelID returns the interned label index of the transition.
func (c *Compiled) LabelID(e int32) int32 { return c.edgeLabel[e] }

// Label returns the interned label at the given label index: the first Label
// value encountered with that label string (nil labels intern alongside
// labels rendering the empty string).
func (c *Compiled) Label(lid int32) Label { return c.labels[lid] }

// LabelString returns the label string at the given label index, resolved
// once at compile time.
func (c *Compiled) LabelString(lid int32) string { return c.labelStrs[lid] }

// TransitionAt returns the original transition value at the given transition
// index, byte-identical to what the builder LTS holds.
func (c *Compiled) TransitionAt(e int32) Transition { return c.trs[e] }

// ReachableBits returns the bitset of states reachable from the given dense
// state (including it) and their count.
func (c *Compiled) ReachableBits(start int32) (Bitset, int) {
	visited := NewBitset(len(c.states))
	visited.Set(start)
	count := 1
	stack := make([]int32, 0, 64)
	stack = append(stack, start)
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range c.Out(cur) {
			next := c.edgeTo[e]
			if visited.Has(next) {
				continue
			}
			visited.Set(next)
			count++
			stack = append(stack, next)
		}
	}
	return visited, count
}

// Bitset is a fixed-width bitset over dense state indices, the visited-set
// representation of every compiled graph traversal.
type Bitset []uint64

// NewBitset returns an all-false bitset for n elements.
func NewBitset(n int) Bitset { return make(Bitset, (n+63)/64) }

// Set sets bit i.
func (b Bitset) Set(i int32) { b[i>>6] |= 1 << uint(i&63) }

// Clear clears bit i.
func (b Bitset) Clear(i int32) { b[i>>6] &^= 1 << uint(i&63) }

// Has reports whether bit i is set.
func (b Bitset) Has(i int32) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }
