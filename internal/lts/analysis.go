package lts

import (
	"fmt"
	"strings"
)

// StatePredicate selects states, e.g. "some non-allowed actor could identify
// the diagnosis field".
type StatePredicate func(StateID) bool

// Trace is a path through the LTS starting at some state: a sequence of
// transitions where each transition's source is the previous one's target.
type Trace []Transition

// String renders the trace one transition per line.
func (tr Trace) String() string {
	parts := make([]string, len(tr))
	for i, t := range tr {
		parts[i] = t.String()
	}
	return strings.Join(parts, "\n")
}

// Exists reports whether some reachable state satisfies the predicate
// (the modal-logic EF operator) and, if so, returns a shortest witness trace
// from the initial state to such a state.
func (l *LTS) Exists(pred StatePredicate) (bool, Trace, error) {
	if l.initial < 0 {
		return false, nil, ErrNoInitialState
	}
	trace, found := l.shortestTrace(l.states[l.initial], pred)
	return found, trace, nil
}

// Always reports whether every reachable state satisfies the predicate
// (the AG operator). If not, it returns a shortest counter-example trace to a
// violating state.
func (l *LTS) Always(pred StatePredicate) (bool, Trace, error) {
	violating, trace, err := l.Exists(func(id StateID) bool { return !pred(id) })
	if err != nil {
		return false, nil, err
	}
	if violating {
		return false, trace, nil
	}
	return true, nil, nil
}

// shortestTrace runs an integer BFS over the CSR layout from start and
// returns the shortest trace to a state satisfying pred. The discovery order
// (FIFO queue, out-edges in insertion order) matches the original map-based
// search exactly, so witness traces are byte-identical.
func (l *LTS) shortestTrace(start StateID, pred StatePredicate) (Trace, bool) {
	s, ok := l.Index(start)
	if !ok {
		return nil, false
	}
	if pred(start) {
		return Trace{}, true
	}
	// via[v] is the transition that discovered v; its source is the BFS
	// parent, so one array carries both links of the parent chain.
	via := make([]int32, len(l.states))
	for i := range via {
		via[i] = -1
	}
	visited := NewBitset(len(l.states))
	visited.Set(s)
	queue := make([]int32, 0, 64)
	queue = append(queue, s)
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		for _, e := range l.Out(cur) {
			next := l.edgeTo[e]
			if visited.Has(next) {
				continue
			}
			visited.Set(next)
			via[next] = e
			if pred(l.states[next]) {
				depth := 0
				for at := next; at != s; at = l.edgeFrom[via[at]] {
					depth++
				}
				trace := make(Trace, depth)
				for at := next; at != s; at = l.edgeFrom[via[at]] {
					depth--
					trace[depth] = l.TransitionAt(via[at])
				}
				return trace, true
			}
			queue = append(queue, next)
		}
	}
	return nil, false
}

// ShortestTraceTo returns the shortest trace from the initial state to the
// given state.
func (l *LTS) ShortestTraceTo(target StateID) (Trace, error) {
	if l.initial < 0 {
		return nil, ErrNoInitialState
	}
	trace, ok := l.shortestTrace(l.states[l.initial], func(id StateID) bool { return id == target })
	if !ok {
		return nil, fmt.Errorf("lts: state %q is not reachable from the initial state", target)
	}
	return trace, nil
}
