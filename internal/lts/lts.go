// Package lts provides a general-purpose Labelled Transition System (LTS)
// library: bulk construction, traversal, trace extraction, property checking
// and rendering.
//
// The paper's formal model of user privacy (Section II-B) is an LTS whose
// states represent the user's state of privacy and whose labelled transitions
// represent actions on personal data. This package is deliberately agnostic
// about what states and labels mean: package core layers the privacy
// semantics (state variables, actions, extraction rules) on top of it, and
// the analyses in packages risk and pseudorisk annotate it.
//
// An LTS is built whole and never changes. FromParts builds one from a state
// count and an edge list, RestoreCompiled from the flat sections a model
// store saved and Relabeled from another LTS with new labels; nothing mutates
// one afterwards. An LTS is its dense arrays — int32 state indices,
// per-transition endpoints and labels, a CSR layout in each direction — so
// every analysis is an integer traversal and every LTS is safe for concurrent
// readers. State i is named "s<i>": the IDs and both CSR layouts are derived
// from the state count and the edges, never supplied, and an ID is parsed
// back to its index, not looked up.
package lts

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// StateID identifies a state within an LTS.
type StateID string

// Label is implemented by transition labels. Labels must be immutable once
// attached to a transition.
type Label interface {
	// LabelString returns a short human-readable rendering of the label,
	// used in traces, reports and DOT output.
	LabelString() string
}

// StringLabel is a trivial Label for tests and simple systems.
type StringLabel string

// LabelString implements Label.
func (s StringLabel) LabelString() string { return string(s) }

var _ Label = StringLabel("")

// Transition is a directed, labelled edge of the LTS.
type Transition struct {
	From  StateID
	To    StateID
	Label Label
}

// labelString renders a label; nil renders "".
func labelString(label Label) string {
	if label == nil {
		return ""
	}
	return label.LabelString()
}

// String renders the transition for traces and error messages, e.g.
// "s0 --[collect(name)]--> s1".
func (t Transition) String() string {
	return string(t.From) + " --[" + labelString(t.Label) + "]--> " + string(t.To)
}

// LTS is an immutable labelled transition system: states are dense int32
// indices, every distinct label is interned by identity into a table and
// rendered once, and the transitions are laid out twice in
// compressed-sparse-row (CSR) form — grouped by source for outgoing traversal
// and by target for incoming traversal — as flat []int32 slices of
// transition indices. Every analysis
// in this package runs on that layout: integer BFS/DFS over slices with
// bitset visited sets, no map lookups and no label rendering on the hot path.
// The zero value is not usable; only FromParts, RestoreCompiled and Relabeled
// build one. All methods are safe for concurrent use.
type LTS struct {
	states  []StateID // dense index s -> "s<s>"
	initial int32     // dense initial state, -1 when none

	labels    []Label  // distinct labels by identity, in first-occurrence order
	labelStrs []string // labelStrs[i] renders labels[i]
	edgeLabel []int32  // per transition -> its label's index into labels, -1 for nil
	edgeFrom  []int32  // per transition -> dense source state
	edgeTo    []int32  // per transition -> dense target state

	outOff   []int32 // len StateCount+1; out-edges of s are outEdges[outOff[s]:outOff[s+1]]
	outEdges []int32 // transition indices grouped by source, insertion order within each source
	inOff    []int32
	inEdges  []int32
}

// Compiled returns l itself: an LTS is born in its compiled form, so this
// allocates nothing and builds nothing.
func (l *LTS) Compiled() *LTS { return l }

// StateCount returns the number of states.
func (l *LTS) StateCount() int { return len(l.states) }

// TransitionCount returns the number of transitions.
func (l *LTS) TransitionCount() int { return len(l.edgeLabel) }

// NumLabels returns the number of entries in the label table: the distinct
// non-nil labels by identity.
func (l *LTS) NumLabels() int { return len(l.labels) }

// Initial returns the initial state ID; ok is false if the LTS has none.
func (l *LTS) Initial() (StateID, bool) {
	if l.initial < 0 {
		return "", false
	}
	return l.states[l.initial], true
}

// Index returns the dense index of the state ID, parsing "s<i>" — decimal,
// no sign, no leading zero — for a state i below the count; ok is false for
// any other ID.
func (l *LTS) Index(id StateID) (int32, bool) {
	if len(id) < 2 || len(id) > 11 || id[0] != 's' || (id[1] == '0' && len(id) > 2) {
		return -1, false
	}
	v := uint64(0)
	for _, c := range []byte(id[1:]) {
		if c < '0' || c > '9' {
			return -1, false
		}
		v = v*10 + uint64(c-'0')
	}
	return int32(v), v < uint64(len(l.states))
}

// canonicalIDs returns the state IDs s0…s<n-1> as substrings of one backing
// string: one allocation for all of them instead of one per state.
func canonicalIDs(n int) []StateID {
	buf := make([]byte, 0, n*(1+len(strconv.Itoa(n))))
	for i := 0; i < n; i++ {
		buf = strconv.AppendInt(append(buf, 's'), int64(i), 10)
	}
	all := string(buf)
	ids := make([]StateID, n)
	for i, off, width, wider := 0, 0, 2, 10; i < n; i++ {
		if i == wider {
			width, wider = width+1, wider*10
		}
		ids[i] = StateID(all[off : off+width])
		off += width
	}
	return ids
}

// StateAt returns the ID of the state at the given dense index.
func (l *LTS) StateAt(s int32) StateID { return l.states[s] }

// TransitionAt returns the transition at the given transition index.
func (l *LTS) TransitionAt(e int32) Transition {
	var label Label
	if lid := l.edgeLabel[e]; lid >= 0 {
		label = l.labels[lid]
	}
	return Transition{From: l.states[l.edgeFrom[e]], To: l.states[l.edgeTo[e]], Label: label}
}

// StateIDs returns all state IDs in dense order.
func (l *LTS) StateIDs() []StateID {
	out := make([]StateID, len(l.states))
	copy(out, l.states)
	return out
}

// Transitions returns a copy of all transitions in insertion order.
func (l *LTS) Transitions() []Transition {
	out := make([]Transition, len(l.edgeLabel))
	for e := range out {
		out[e] = l.TransitionAt(int32(e))
	}
	return out
}

// Out returns the transition indices leaving the state, in insertion order.
// The returned slice aliases the CSR layout and must not be modified.
func (l *LTS) Out(s int32) []int32 { return l.outEdges[l.outOff[s]:l.outOff[s+1]] }

// OutDegree returns the number of transitions leaving the state.
func (l *LTS) OutDegree(s int32) int { return int(l.outOff[s+1] - l.outOff[s]) }

// MaxOutDegree returns the largest number of transitions leaving any state.
func (l *LTS) MaxOutDegree() int {
	d := 0
	for s := range l.states {
		d = max(d, l.OutDegree(int32(s)))
	}
	return d
}

// To returns the dense target state of the transition.
func (l *LTS) To(e int32) int32 { return l.edgeTo[e] }

// Outgoing returns the transitions leaving the given state, in insertion
// order.
func (l *LTS) Outgoing(id StateID) []Transition { return l.adjacent(id, (*LTS).Out) }

// adjacent copies one CSR bucket of the state out as transitions.
func (l *LTS) adjacent(id StateID, bucket func(*LTS, int32) []int32) []Transition {
	s, ok := l.Index(id)
	if !ok {
		return []Transition{}
	}
	edges := bucket(l, s)
	out := make([]Transition, len(edges))
	for i, e := range edges {
		out[i] = l.TransitionAt(e)
	}
	return out
}

// ErrNoInitialState is returned by analyses that require an initial state.
var ErrNoInitialState = errors.New("lts: no initial state set")

// Reachable returns the set of states reachable from the initial state
// (including it), as a map for membership tests.
func (l *LTS) Reachable() (map[StateID]bool, error) {
	if l.initial < 0 {
		return nil, ErrNoInitialState
	}
	return l.ReachableFrom(l.states[l.initial]), nil
}

// ReachableFrom returns the set of states reachable from the given state.
// The traversal itself is an integer DFS with a bitset visited set; only the
// returned membership map is allocated per call.
func (l *LTS) ReachableFrom(start StateID) map[StateID]bool {
	s, ok := l.Index(start)
	if !ok {
		return make(map[StateID]bool)
	}
	bits, count := l.ReachableBits(s)
	visited := make(map[StateID]bool, count)
	for i, id := range l.states {
		if bits.Has(int32(i)) {
			visited[id] = true
		}
	}
	return visited
}

// Stats summarises the size and shape of the LTS.
type Stats struct {
	States      int
	Transitions int
	Terminal    int
	Unreachable int
	// MaxOutDegree is the largest number of transitions leaving any state.
	MaxOutDegree int
	// Depth is the length of the longest shortest-path from the initial
	// state to any reachable state (the "diameter" from the initial state).
	Depth int
}

// Stats computes summary statistics. It requires an initial state.
func (l *LTS) Stats() (Stats, error) {
	init := l.initial
	if init < 0 {
		return Stats{}, ErrNoInitialState
	}
	st := Stats{
		States:       l.StateCount(),
		Transitions:  l.TransitionCount(),
		MaxOutDegree: l.MaxOutDegree(),
	}
	bits, reachable := l.ReachableBits(init)
	st.Unreachable = l.StateCount() - reachable
	for i := range l.states {
		if bits.Has(int32(i)) && l.OutDegree(int32(i)) == 0 {
			st.Terminal++
		}
	}
	// Integer BFS for depth.
	dist := make([]int32, l.StateCount())
	for i := range dist {
		dist[i] = -1
	}
	dist[init] = 0
	queue := make([]int32, 0, 64)
	queue = append(queue, init)
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		if int(dist[cur]) > st.Depth {
			st.Depth = int(dist[cur])
		}
		for _, e := range l.Out(cur) {
			next := l.edgeTo[e]
			if dist[next] < 0 {
				dist[next] = dist[cur] + 1
				queue = append(queue, next)
			}
		}
	}
	return st, nil
}

// String renders a compact multi-line description of the LTS, useful in
// examples and debugging output.
func (l *LTS) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "LTS: %d states, %d transitions\n", len(l.states), len(l.edgeLabel))
	if init, ok := l.Initial(); ok {
		fmt.Fprintf(&b, "initial: %s\n", init)
	}
	for s := range l.states {
		for _, e := range l.Out(int32(s)) {
			fmt.Fprintf(&b, "  %s\n", l.TransitionAt(e))
		}
	}
	return b.String()
}

// ReachableBits returns the bitset of states reachable from the given dense
// state (including it) and their count.
func (l *LTS) ReachableBits(start int32) (Bitset, int) {
	visited := NewBitset(len(l.states))
	visited.Set(start)
	count := 1
	stack := make([]int32, 0, 64)
	stack = append(stack, start)
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range l.Out(cur) {
			next := l.edgeTo[e]
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
// representation of every graph traversal.
type Bitset []uint64

// NewBitset returns an all-false bitset for n elements.
func NewBitset(n int) Bitset { return make(Bitset, (n+63)/64) }

// Set sets bit i.
func (b Bitset) Set(i int32) { b[i>>6] |= 1 << uint(i&63) }

// Has reports whether bit i is set.
func (b Bitset) Has(i int32) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }
