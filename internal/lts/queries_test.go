package lts

import (
	"maps"
	"slices"
)

// Graph queries only the tests ask: each is a few lines over the CSR layout,
// kept here so the tests can state what a built LTS looks like.

// End returns the final state of the trace, or start if the trace is empty.
func (tr Trace) End(start StateID) StateID {
	if len(tr) == 0 {
		return start
	}
	return tr[len(tr)-1].To
}

// In returns the transition indices entering the state, in insertion order.
// The returned slice aliases the CSR layout and must not be modified.
func (l *LTS) In(s int32) []int32 { return l.inEdges[l.inOff[s]:l.inOff[s+1]] }

// Incoming returns the transitions entering the given state.
func (l *LTS) Incoming(id StateID) []Transition { return l.adjacent(id, (*LTS).In) }

// Successors returns the distinct successor state IDs of the state, sorted.
func (l *LTS) Successors(id StateID) []StateID {
	set := make(map[StateID]bool)
	for _, t := range l.Outgoing(id) {
		set[t.To] = true
	}
	return slices.Sorted(maps.Keys(set))
}

// reachableSorted returns the states the initial state does (or, with
// reachable false, does not) reach that satisfy keep, sorted by ID.
func (l *LTS) reachableSorted(reachable bool, keep func(s int32) bool) ([]StateID, error) {
	if l.initial < 0 {
		return nil, ErrNoInitialState
	}
	bits, _ := l.ReachableBits(l.initial)
	var out []StateID
	for i, id := range l.states {
		if bits.Has(int32(i)) == reachable && keep(int32(i)) {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out, nil
}

// FindStates returns the reachable states satisfying the predicate, sorted.
func (l *LTS) FindStates(pred StatePredicate) ([]StateID, error) {
	return l.reachableSorted(true, func(s int32) bool { return pred(l.states[s]) })
}

// UnreachableStates returns the states the initial state does not reach.
func (l *LTS) UnreachableStates() ([]StateID, error) {
	return l.reachableSorted(false, func(int32) bool { return true })
}

// TerminalStates returns the reachable states without outgoing transitions.
func (l *LTS) TerminalStates() ([]StateID, error) {
	return l.reachableSorted(true, func(s int32) bool { return l.OutDegree(s) == 0 })
}

// FindTransitions returns the transitions between reachable states that
// satisfy the predicate, in insertion order.
func (l *LTS) FindTransitions(pred func(Transition) bool) ([]Transition, error) {
	if l.initial < 0 {
		return nil, ErrNoInitialState
	}
	bits, _ := l.ReachableBits(l.initial)
	var out []Transition
	for e := range l.edgeLabel {
		if tr := l.TransitionAt(int32(e)); bits.Has(l.edgeFrom[e]) && pred(tr) {
			out = append(out, tr)
		}
	}
	return out, nil
}

// IsDeterministic reports whether no state has two outgoing transitions with
// the same label string leading to different states.
func (l *LTS) IsDeterministic() bool {
	for s := range l.states {
		seen := make(map[string]int32)
		for _, e := range l.Out(int32(s)) {
			str := ""
			if lid := l.edgeLabel[e]; lid >= 0 {
				str = l.labelStrs[lid]
			}
			if prev, ok := seen[str]; ok && prev != l.edgeTo[e] {
				return false
			}
			seen[str] = l.edgeTo[e]
		}
	}
	return true
}

// TracesFrom enumerates every simple path (no repeated state) of at most
// maxDepth steps from start, stopping after maxTraces paths unless maxTraces
// is negative.
func (l *LTS) TracesFrom(start StateID, maxDepth, maxTraces int) []Trace {
	s, ok := l.Index(start)
	if !ok {
		return nil
	}
	var out []Trace
	// Simple paths are bounded by the state count, which caps the buffer
	// even for an effectively unbounded maxDepth.
	cur := make([]int32, 0, min(max(maxDepth, 0), len(l.states)))
	visited := map[int32]bool{s: true}
	var walk func(from int32, depth int)
	walk = func(from int32, depth int) {
		if maxTraces >= 0 && len(out) >= maxTraces {
			return
		}
		extended := false
		for _, e := range l.Out(from) {
			if to := l.edgeTo[e]; depth < maxDepth && !visited[to] {
				visited[to] = true
				cur = append(cur, e)
				walk(to, depth+1)
				cur = cur[:len(cur)-1]
				visited[to] = false
				extended = true
			}
		}
		if !extended && len(cur) > 0 {
			trace := make(Trace, len(cur))
			for i, e := range cur {
				trace[i] = l.TransitionAt(e)
			}
			out = append(out, trace)
		}
	}
	walk(s, 0)
	return out
}
