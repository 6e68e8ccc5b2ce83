package lts

import (
	"fmt"
	"slices"
	"strings"
)

// StatePredicate selects states, e.g. "some non-allowed actor could identify
// the diagnosis field".
type StatePredicate func(StateID) bool

// TransitionPredicate selects transitions, e.g. "a read action by the
// Administrator".
type TransitionPredicate func(Transition) bool

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

// End returns the final state of the trace, or the given start state if the
// trace is empty.
func (tr Trace) End(start StateID) StateID {
	if len(tr) == 0 {
		return start
	}
	return tr[len(tr)-1].To
}

// FindStates returns the reachable states satisfying the predicate, sorted.
func (l *LTS) FindStates(pred StatePredicate) ([]StateID, error) {
	return l.reachableSorted(true, func(s int32) bool { return pred(l.states[s]) })
}

// FindTransitions returns the transitions (between reachable states)
// satisfying the predicate, in insertion order.
func (l *LTS) FindTransitions(pred TransitionPredicate) ([]Transition, error) {
	if l.initial < 0 {
		return nil, ErrNoInitialState
	}
	bits, _ := l.ReachableBits(l.initial)
	var out []Transition
	for e := range l.trs {
		if bits.Has(l.edgeFrom[e]) && pred(l.trs[e]) {
			out = append(out, l.trs[e])
		}
	}
	return out, nil
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
	s, ok := l.ids[start]
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
					trace[depth] = l.trs[via[at]]
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

// TracesFrom enumerates every simple path (no repeated states) of length at
// most maxDepth starting from the given state. The traversal is bounded to
// maxTraces paths so callers cannot accidentally explode; a negative
// maxTraces means unbounded.
func (l *LTS) TracesFrom(start StateID, maxDepth, maxTraces int) []Trace {
	s, ok := l.ids[start]
	if !ok {
		return nil
	}
	var out []Trace
	// Simple paths are bounded by the state count, so cap the pre-allocation
	// there: callers may pass an effectively-unbounded maxDepth.
	cur := make([]int32, 0, min(max(maxDepth, 0), len(l.states))) // transition indices of the current path
	visited := NewBitset(len(l.states))
	visited.Set(s)
	var walk func(from int32, depth int)
	walk = func(from int32, depth int) {
		if maxTraces >= 0 && len(out) >= maxTraces {
			return
		}
		extended := false
		if depth < maxDepth {
			for _, e := range l.Out(from) {
				to := l.edgeTo[e]
				if visited.Has(to) {
					continue
				}
				visited.Set(to)
				cur = append(cur, e)
				walk(to, depth+1)
				cur = cur[:len(cur)-1]
				visited.Clear(to)
				extended = true
			}
		}
		if !extended && len(cur) > 0 {
			trace := make(Trace, len(cur))
			for i, e := range cur {
				trace[i] = l.trs[e]
			}
			out = append(out, trace)
		}
	}
	walk(s, 0)
	return out
}

// Minimize returns a new LTS that is the quotient of l under label-signature
// partition refinement: states are merged when they have the same outgoing
// label set and their successors fall in the same blocks, iterated to a fixed
// point. This is strong-bisimulation minimisation restricted to label
// strings; it is used to present compact views of large generated models.
// The mapping from original state IDs to representative IDs is also returned.
//
// The refinement runs on the CSR layout: a state's signature is its own
// block plus the sorted multiset of (label ID, successor block) integer
// pairs, hashed and bucketed with full-signature comparison on collision, so
// no label strings are rendered and no per-round signature strings are
// built. Stability is detected by comparing the partitions themselves (block
// numbering is canonical — first encounter in state order — so two rounds
// assign identical arrays exactly when the partition stopped refining).
func (l *LTS) Minimize() (*LTS, map[StateID]StateID) {
	return l.MinimizeRespecting(nil)
}

// MinimizeRespecting is Minimize with a caller-refined initial partition:
// states start in the same block only when classOf assigns them the same
// class (on top of the terminal/non-terminal split), so states from
// different classes are never merged. Callers use it to make the quotient
// respect state payloads the LTS itself does not know about — the privacy
// layer passes each state's privacy-vector key, which makes every quotient
// transition's vector delta an exact original delta and vice versa. A nil
// classOf puts every state in one class, which is plain Minimize.
func (l *LTS) MinimizeRespecting(classOf func(StateID) string) (*LTS, map[StateID]StateID) {
	n := l.StateCount()

	// Initial partition: split by terminal/non-terminal and the caller's
	// class, blocks numbered by first encounter in state order (the
	// canonical numbering every round uses, so the stability comparison
	// below is a plain array equality).
	block := make([]int32, n)
	numBlocks := 0
	type initKey struct {
		terminal bool
		class    string
	}
	initBlocks := make(map[initKey]int32, 2)
	for i := 0; i < n; i++ {
		key := initKey{terminal: l.OutDegree(int32(i)) == 0}
		if classOf != nil {
			key.class = classOf(l.states[i])
		}
		b, ok := initBlocks[key]
		if !ok {
			b = int32(numBlocks)
			numBlocks++
			initBlocks[key] = b
		}
		block[i] = b
	}

	// blockRep remembers, per new block, the signature that founded it, for
	// exact comparison when two signatures collide on the same hash.
	type blockRep struct {
		own int32
		sig []uint64
	}
	newBlock := make([]int32, n)
	sig := make([]uint64, 0, l.MaxOutDegree())
	for {
		table := make(map[uint64][]int32, numBlocks)
		reps := make([]blockRep, 0, numBlocks)
		for i := 0; i < n; i++ {
			sig = sig[:0]
			for _, e := range l.Out(int32(i)) {
				sig = append(sig, uint64(uint32(l.edgeLabel[e]))<<32|uint64(uint32(block[l.edgeTo[e]])))
			}
			slices.Sort(sig)
			own := block[i]
			h := hashSignature(own, sig)
			found := int32(-1)
			for _, cand := range table[h] {
				if r := &reps[cand]; r.own == own && slices.Equal(r.sig, sig) {
					found = cand
					break
				}
			}
			if found < 0 {
				found = int32(len(reps))
				reps = append(reps, blockRep{own: own, sig: append([]uint64(nil), sig...)})
				table[h] = append(table[h], found)
			}
			newBlock[i] = found
		}
		stable := len(reps) == numBlocks && slices.Equal(newBlock, block)
		block, newBlock = newBlock, block
		numBlocks = len(reps)
		if stable {
			break
		}
	}

	// Blocks are numbered by first encounter, so block b's representative —
	// its first state in insertion order — is the b-th state to open a block,
	// and the quotient is already in dense form for FromParts.
	reps := make([]StateID, 0, numBlocks)
	mapping := make(map[StateID]StateID, n)
	for i := 0; i < n; i++ {
		if int(block[i]) == len(reps) {
			reps = append(reps, l.states[i])
		}
		mapping[l.states[i]] = reps[block[i]]
	}
	// Quotient transitions, deduplicated by (source block, target block,
	// label) with the first insertion-order occurrence winning.
	type quotientEdge struct{ from, to, label int32 }
	added := make(map[quotientEdge]bool, len(l.trs))
	var edges []BulkEdge
	for e := range l.trs {
		k := quotientEdge{block[l.edgeFrom[e]], block[l.edgeTo[e]], l.edgeLabel[e]}
		if !added[k] {
			added[k] = true
			edges = append(edges, BulkEdge{From: k.from, To: k.to, Label: l.trs[e].Label})
		}
	}
	initial := -1
	if l.initial >= 0 {
		initial = int(block[l.initial])
	}
	min, err := FromParts(reps, initial, edges)
	if err != nil {
		panic(err) // unreachable: representatives are distinct states of l
	}
	return min, mapping
}

// hashSignature mixes a minimisation signature into a 64-bit FNV-1a-style
// hash. Collisions are resolved by full comparison, so only distribution
// matters here, not cryptographic strength.
func hashSignature(own int32, sig []uint64) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	h = (h ^ uint64(uint32(own))) * prime
	for _, v := range sig {
		h = (h ^ (v & 0xffffffff)) * prime
		h = (h ^ (v >> 32)) * prime
	}
	return h
}
