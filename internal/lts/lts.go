// Package lts provides a general-purpose Labelled Transition System (LTS)
// library: construction, traversal, trace extraction, property checking,
// minimisation and rendering.
//
// The paper's formal model of user privacy (Section II-B) is an LTS whose
// states represent the user's state of privacy and whose labelled transitions
// represent actions on personal data. This package is deliberately agnostic
// about what states and labels mean: package core layers the privacy
// semantics (state variables, actions, extraction rules) on top of it, and
// the analyses in packages risk and pseudorisk annotate it.
//
// There is one representation: states are dense int32 indices in insertion
// order behind a single StateID -> index map, per-state data is a slice over
// that index, and adjacency is the CSR layout of the Compiled view, which
// shares the map. An LTS built edge by edge compiles on first use; one built
// in bulk (FromParts, RestoreLTS, Relabeled) is born compiled.
package lts

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
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

// State is a node of the LTS. Props holds small display-oriented annotations;
// richer per-state data (such as the privacy state vector) is kept by the
// layer that builds the LTS, indexed by the state's dense index (Compiled.Index).
type State struct {
	ID StateID
	// Props are optional display annotations (e.g. "phase": "after-care").
	Props map[string]string
}

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
	label := labelString(t.Label)
	var b strings.Builder
	b.Grow(len(t.From) + len(label) + len(t.To) + len(" --[") + len("]--> "))
	b.WriteString(string(t.From))
	b.WriteString(" --[")
	b.WriteString(label)
	b.WriteString("]--> ")
	b.WriteString(string(t.To))
	return b.String()
}

// LTS is a labelled transition system. The zero value is not usable; create
// instances with New. An LTS is not safe for concurrent mutation; once built
// it is safe for concurrent readers.
type LTS struct {
	initial     StateID
	hasInitial  bool
	index       map[StateID]int32   // the one ID -> dense index map, shared with Compiled views
	order       []StateID           // dense index -> ID, insertion order
	props       []map[string]string // dense index -> props; may be shorter than order
	transitions []Transition
	// out lists each state's outgoing transition indices for AddTransition's
	// duplicate scan; a bulk-born graph has none until edit derives it.
	out [][]int32

	// compiled caches the CSR view every analysis and adjacency query runs
	// on; mutators reset it. Concurrent readers may race to compile, which is
	// harmless (both results are identical snapshots); mutation concurrent
	// with reads is already excluded by the LTS contract.
	compiled atomic.Pointer[Compiled]
}

// Compiled returns the CSR compilation of the LTS, building it on first use
// and caching it until the next mutation. The result is an immutable snapshot
// shared by all callers.
func (l *LTS) Compiled() *Compiled {
	if c := l.compiled.Load(); c != nil {
		return c
	}
	return Compile(l)
}

// edit readies the LTS for a mutation. A cached view shares the index map
// (and, through Relabeled, the props slice), so they are copied and the view
// dropped; order and transitions are shared at full capacity, so appending
// never writes into a snapshot.
func (l *LTS) edit() {
	c := l.compiled.Load()
	if c == nil {
		return
	}
	l.index = maps.Clone(l.index)
	l.props = slices.Clone(l.props)
	if len(l.out) < len(l.order) { // bulk-born: the CSR is the only adjacency so far
		l.out = make([][]int32, len(l.order))
		for s := range l.out {
			l.out[s] = slices.Clip(c.Out(int32(s)))
		}
	}
	l.compiled.Store(nil)
}

// New returns an empty LTS.
func New() *LTS {
	return &LTS{index: make(map[StateID]int32)}
}

// AddState adds a state. Adding an existing ID merges the props.
func (l *LTS) AddState(id StateID, props map[string]string) {
	s, exists := l.index[id]
	if exists && len(props) == 0 {
		return
	}
	l.edit()
	if !exists {
		s = int32(len(l.order))
		l.index[id] = s
		l.order = append(l.order, id)
		l.out = append(l.out, nil)
	}
	if len(props) > 0 {
		for int(s) >= len(l.props) {
			l.props = append(l.props, nil)
		}
		if l.props[s] == nil {
			l.props[s] = make(map[string]string, len(props))
		}
		maps.Copy(l.props[s], props)
	}
}

// SetInitial marks the initial state, adding it if necessary.
func (l *LTS) SetInitial(id StateID) {
	l.AddState(id, nil)
	l.edit()
	l.initial = id
	l.hasInitial = true
}

// Initial returns the initial state ID; ok is false if none was set.
func (l *LTS) Initial() (StateID, bool) { return l.initial, l.hasInitial }

// HasState reports whether the state exists.
func (l *LTS) HasState(id StateID) bool {
	_, ok := l.index[id]
	return ok
}

// State returns the state with the given ID.
func (l *LTS) State(id StateID) (State, bool) {
	s, ok := l.index[id]
	if !ok {
		return State{}, false
	}
	return State{ID: id, Props: l.propsAt(int(s))}, true
}

// propsAt returns the props of the state at the dense index, nil when it has
// none.
func (l *LTS) propsAt(s int) map[string]string {
	if s < len(l.props) {
		return l.props[s]
	}
	return nil
}

// AddTransition adds a labelled transition, creating missing endpoint states.
// The same (from, label, to) triple may be added only once; duplicates are
// silently ignored so generators can be written without bookkeeping.
func (l *LTS) AddTransition(from, to StateID, label Label) {
	l.AddState(from, nil)
	l.AddState(to, nil)
	l.edit()
	labelStr := labelString(label)
	for _, idx := range l.out[l.index[from]] {
		if t := l.transitions[idx]; t.To == to && labelString(t.Label) == labelStr {
			return
		}
	}
	l.AddTransitionUnchecked(from, to, label)
}

// AddTransitionUnchecked appends a labelled transition without AddTransition's
// duplicate scan (which renders the label of every parallel edge). Builders
// that guarantee each (from, to, label) triple is produced at most once use
// it to keep construction cheap. Missing endpoint states are still created.
func (l *LTS) AddTransitionUnchecked(from, to StateID, label Label) {
	l.AddState(from, nil)
	l.AddState(to, nil)
	l.edit()
	s := l.index[from]
	l.out[s] = append(l.out[s], int32(len(l.transitions)))
	l.transitions = append(l.transitions, Transition{From: from, To: to, Label: label})
}

// StateCount returns the number of states.
func (l *LTS) StateCount() int { return len(l.order) }

// TransitionCount returns the number of transitions.
func (l *LTS) TransitionCount() int { return len(l.transitions) }

// StateIDs returns all state IDs in insertion order.
func (l *LTS) StateIDs() []StateID {
	out := make([]StateID, len(l.order))
	copy(out, l.order)
	return out
}

// Transitions returns a copy of all transitions in insertion order.
func (l *LTS) Transitions() []Transition {
	out := make([]Transition, len(l.transitions))
	copy(out, l.transitions)
	return out
}

// Outgoing returns the transitions leaving the given state, in insertion
// order.
func (l *LTS) Outgoing(id StateID) []Transition { return l.adjacent(id, (*Compiled).Out) }

// Incoming returns the transitions entering the given state.
func (l *LTS) Incoming(id StateID) []Transition { return l.adjacent(id, (*Compiled).In) }

// adjacent copies one CSR bucket of the state out as transitions.
func (l *LTS) adjacent(id StateID, bucket func(*Compiled, int32) []int32) []Transition {
	c := l.Compiled()
	s, ok := c.ids[id]
	if !ok {
		return []Transition{}
	}
	edges := bucket(c, s)
	out := make([]Transition, len(edges))
	for i, e := range edges {
		out[i] = c.trs[e]
	}
	return out
}

// Successors returns the distinct successor state IDs of the given state,
// sorted.
func (l *LTS) Successors(id StateID) []StateID {
	set := make(map[StateID]bool)
	for _, t := range l.Outgoing(id) {
		set[t.To] = true
	}
	out := make([]StateID, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ErrNoInitialState is returned by analyses that require an initial state.
var ErrNoInitialState = errors.New("lts: no initial state set")

// Reachable returns the set of states reachable from the initial state
// (including it), as a map for membership tests.
func (l *LTS) Reachable() (map[StateID]bool, error) {
	if !l.hasInitial {
		return nil, ErrNoInitialState
	}
	return l.ReachableFrom(l.initial), nil
}

// ReachableFrom returns the set of states reachable from the given state.
// The traversal itself is an integer DFS with a bitset visited set over the
// compiled view; only the returned membership map is allocated per call.
func (l *LTS) ReachableFrom(start StateID) map[StateID]bool {
	c := l.Compiled()
	s, ok := c.ids[start]
	if !ok {
		return make(map[StateID]bool)
	}
	bits, count := c.ReachableBits(s)
	visited := make(map[StateID]bool, count)
	for i, id := range c.states {
		if bits.Has(int32(i)) {
			visited[id] = true
		}
	}
	return visited
}

// UnreachableStates returns states not reachable from the initial state,
// sorted by ID. Generators should normally produce none.
func (l *LTS) UnreachableStates() ([]StateID, error) {
	c := l.Compiled()
	init, ok := c.InitialIndex()
	if !ok {
		return nil, ErrNoInitialState
	}
	bits, _ := c.ReachableBits(init)
	var out []StateID
	for i, id := range c.states {
		if !bits.Has(int32(i)) {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// TerminalStates returns reachable states with no outgoing transitions,
// sorted by ID.
func (l *LTS) TerminalStates() ([]StateID, error) {
	c := l.Compiled()
	init, ok := c.InitialIndex()
	if !ok {
		return nil, ErrNoInitialState
	}
	bits, _ := c.ReachableBits(init)
	var out []StateID
	for i, id := range c.states {
		if bits.Has(int32(i)) && c.OutDegree(int32(i)) == 0 {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// IsDeterministic reports whether no state has two outgoing transitions with
// the same label string leading to different states.
func (l *LTS) IsDeterministic() bool {
	c := l.Compiled()
	seen := make(map[int32]int32)
	for s := range c.states {
		edges := c.Out(int32(s))
		if len(edges) < 2 {
			continue
		}
		clear(seen)
		for _, e := range edges {
			lid := c.edgeLabel[e]
			to := c.edgeTo[e]
			if prev, ok := seen[lid]; ok && prev != to {
				return false
			}
			seen[lid] = to
		}
	}
	return true
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
	c := l.Compiled()
	init, ok := c.InitialIndex()
	if !ok {
		return Stats{}, ErrNoInitialState
	}
	st := Stats{
		States:       c.NumStates(),
		Transitions:  c.NumEdges(),
		MaxOutDegree: c.MaxOutDegree(),
	}
	bits, reachable := c.ReachableBits(init)
	st.Unreachable = c.NumStates() - reachable
	for i := range c.states {
		if bits.Has(int32(i)) && c.OutDegree(int32(i)) == 0 {
			st.Terminal++
		}
	}
	// Integer BFS for depth.
	dist := make([]int32, c.NumStates())
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
		for _, e := range c.Out(cur) {
			next := c.edgeTo[e]
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
	fmt.Fprintf(&b, "LTS: %d states, %d transitions\n", len(l.order), len(l.transitions))
	if l.hasInitial {
		fmt.Fprintf(&b, "initial: %s\n", l.initial)
	}
	for _, id := range l.order {
		for _, t := range l.Outgoing(id) {
			fmt.Fprintf(&b, "  %s\n", t)
		}
	}
	return b.String()
}
