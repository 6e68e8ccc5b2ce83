package lts

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// randomGraph collects a pseudo-random LTS: up to maxStates states, up to
// maxEdges transitions over a label alphabet of numLabels strings (some
// carried by label objects of their own), an initial state most of the time,
// and occasionally nil labels and unreachable islands.
func randomGraph(rng *rand.Rand, maxStates, maxEdges, numLabels int) *graph {
	g := newGraph()
	n := 1 + rng.Intn(maxStates)
	// Slot k is a state the graph names "s<i>" when it first mentions it,
	// the i-th state mentioned.
	slots := make([]StateID, n)
	slot := func(k int) StateID {
		if slots[k] == "" {
			slots[k] = StateID(fmt.Sprint("s", len(g.ids)))
			g.state(slots[k])
		}
		return slots[k]
	}
	// Register a random subset of states up front; the rest appear only as
	// transition endpoints.
	for k := range slots {
		if rng.Intn(3) == 0 {
			slot(k)
		}
	}
	edges := rng.Intn(maxEdges + 1)
	for i := 0; i < edges; i++ {
		from := slot(rng.Intn(n))
		to := slot(rng.Intn(n))
		var label Label
		if rng.Intn(8) != 0 { // occasionally nil
			str := fmt.Sprintf("a%d", rng.Intn(numLabels))
			label = StringLabel(str)
			if rng.Intn(4) == 0 { // an object of its own rendering alike
				label = &ptrLabel{str}
			}
		}
		g.edge(from, to, label)
	}
	if rng.Intn(8) != 0 {
		g.init(slot(rng.Intn(n)))
	}
	return g
}

func randomLTS(rng *rand.Rand, maxStates, maxEdges, numLabels int) *LTS {
	return randomGraph(rng, maxStates, maxEdges, numLabels).build()
}

// checkBuiltFrom checks that l is exactly the graph g collected: states and
// dense indices in insertion order, the initial state, every transition with
// its endpoints and label, both CSR layouts against a linear scan of the
// edge list, a label table of the distinct non-nil labels by identity in
// first-occurrence order, each with its rendering, nil labels indexed -1,
// and a LabelHistogram line per label string, nil's being "".
func checkBuiltFrom(g *graph, l *LTS) error {
	if !slices.Equal(l.StateIDs(), g.ids) {
		return fmt.Errorf("StateIDs = %v, want %v", l.StateIDs(), g.ids)
	}
	for i, id := range g.ids {
		if dense, ok := l.Index(id); !ok || dense != int32(i) || l.states[i] != id {
			return fmt.Errorf("Index(%s) = (%d, %v), want (%d, true)", id, dense, ok, i)
		}
	}
	if _, ok := l.Index("no-such-state"); ok {
		return fmt.Errorf("Index resolved an unknown state")
	}
	if init, ok := l.Initial(); ok != (g.initial >= 0) || (ok && init != g.ids[g.initial]) {
		return fmt.Errorf("Initial = (%s, %v), want index %d", init, ok, g.initial)
	}
	if l.TransitionCount() != len(g.edges) {
		return fmt.Errorf("TransitionCount = %d, want %d", l.TransitionCount(), len(g.edges))
	}
	firstLabel := map[Label]int32{}
	var labelOrder []Label
	for e, want := range g.edges {
		tr := Transition{From: g.ids[want.From], To: g.ids[want.To], Label: want.Label}
		if got := l.TransitionAt(int32(e)); !reflect.DeepEqual(got, tr) || l.edgeFrom[e] != want.From || l.To(int32(e)) != want.To {
			return fmt.Errorf("transition %d = %+v (%d -> %d), want %+v", e, got, l.edgeFrom[e], l.To(int32(e)), tr)
		}
		if want.Label == nil {
			if l.edgeLabel[e] != -1 {
				return fmt.Errorf("edge %d has a nil label at index %d, want -1", e, l.edgeLabel[e])
			}
			continue
		}
		lid, ok := firstLabel[want.Label]
		if !ok {
			lid = int32(len(labelOrder))
			firstLabel[want.Label] = lid
			labelOrder = append(labelOrder, want.Label)
		}
		if l.edgeLabel[e] != lid || l.labels[lid] != want.Label || l.labelStrs[lid] != want.Label.LabelString() {
			return fmt.Errorf("edge %d label id %d, want %d: %v rendering %q", e, l.edgeLabel[e], lid, want.Label, want.Label.LabelString())
		}
	}
	if l.NumLabels() != len(labelOrder) {
		return fmt.Errorf("NumLabels = %d, want %d distinct labels", l.NumLabels(), len(labelOrder))
	}
	perString := map[string]int{}
	for _, edge := range g.edges {
		perString[labelString(edge.Label)]++
	}
	var hist []LabelCount
	for _, str := range slices.Sorted(maps.Keys(perString)) {
		hist = append(hist, LabelCount{str, perString[str]})
	}
	if got := l.LabelHistogram(); !slices.Equal(got, hist) {
		return fmt.Errorf("LabelHistogram = %v, want %v", got, hist)
	}
	for s := range g.ids {
		var out, in []int32
		for e, edge := range g.edges {
			if edge.From == int32(s) {
				out = append(out, int32(e))
			}
			if edge.To == int32(s) {
				in = append(in, int32(e))
			}
		}
		if !slices.Equal(l.Out(int32(s)), out) || !slices.Equal(l.In(int32(s)), in) || l.OutDegree(int32(s)) != len(out) {
			return fmt.Errorf("state %s: Out %v In %v, want %v and %v", g.ids[s], l.Out(int32(s)), l.In(int32(s)), out, in)
		}
	}
	return nil
}

// TestCompiledRoundTrip is the round-trip property test: for randomly
// collected models, the LTS FromParts builds reproduces the collected
// states, initial state, transitions (per source and per target, in
// insertion order) and label strings exactly.
func TestCompiledRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 200; round++ {
		g := randomGraph(rng, 30, 120, 6)
		if err := checkBuiltFrom(g, g.build()); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// countingLabel counts how often it is rendered.
type countingLabel struct {
	str   string
	calls int
}

func (c *countingLabel) LabelString() string { c.calls++; return c.str }

// TestLabelsRenderedOncePerObject: the label table holds one entry per
// label object, so building a graph in bulk renders each object exactly once
// however many transitions share it — two objects that render alike included
// — and nothing that reads the LTS renders it again.
func TestLabelsRenderedOncePerObject(t *testing.T) {
	labels := []*countingLabel{{str: "a"}, {str: "b"}, {str: "a"}} // two objects render alike
	var edges []BulkEdge
	for i := 0; i < 60; i++ {
		edges = append(edges, BulkEdge{From: int32(i % 4), To: int32((i + 1) % 4), Label: labels[i%3]})
	}
	l, err := FromParts(4, 0, edges)
	if err != nil {
		t.Fatal(err)
	}
	if l.NumLabels() != 3 || l.labels[0] != Label(labels[0]) || l.labels[2] != Label(labels[2]) {
		t.Fatalf("label table has %d entries %v, want the 3 objects in order", l.NumLabels(), l.labels)
	}
	l.Stats() //nolint:errcheck // only the rendering count matters here
	if hist := l.LabelHistogram(); !slices.Equal(hist, []LabelCount{{"a", 40}, {"b", 20}}) {
		t.Errorf("LabelHistogram = %v, want the two objects rendering \"a\" on one line", hist)
	}
	l.DOT(DOTOptions{})
	for i, label := range labels {
		if label.calls != 1 {
			t.Errorf("label object %d rendered %d times, want 1", i, label.calls)
		}
	}
}

// --- Reference implementations of the pre-CSR traversals, retained to pin
// --- the rewritten analyses to the old observable behaviour.

func referenceReachableFrom(l *LTS, start StateID) map[StateID]bool {
	visited := make(map[StateID]bool)
	if _, ok := l.Index(start); !ok {
		return visited
	}
	stack := []StateID{start}
	visited[start] = true
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range l.Outgoing(cur) {
			if !visited[t.To] {
				visited[t.To] = true
				stack = append(stack, t.To)
			}
		}
	}
	return visited
}

func referenceShortestTrace(l *LTS, start StateID, pred StatePredicate) (Trace, bool) {
	if _, ok := l.Index(start); !ok {
		return nil, false
	}
	if pred(start) {
		return Trace{}, true
	}
	type parentLink struct {
		prev StateID
		via  Transition
	}
	parents := map[StateID]parentLink{}
	visited := map[StateID]bool{start: true}
	queue := []StateID{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, tr := range l.Outgoing(cur) {
			next := tr.To
			if visited[next] {
				continue
			}
			visited[next] = true
			parents[next] = parentLink{prev: cur, via: tr}
			if pred(next) {
				var rev []Transition
				for at := next; at != start; {
					link := parents[at]
					rev = append(rev, link.via)
					at = link.prev
				}
				trace := make(Trace, 0, len(rev))
				for i := len(rev) - 1; i >= 0; i-- {
					trace = append(trace, rev[i])
				}
				return trace, true
			}
			queue = append(queue, next)
		}
	}
	return nil, false
}

func referenceTracesFrom(l *LTS, start StateID, maxDepth, maxTraces int) []Trace {
	var out []Trace
	var cur Trace
	visited := map[StateID]bool{start: true}
	var walk func(from StateID, depth int)
	walk = func(from StateID, depth int) {
		if maxTraces >= 0 && len(out) >= maxTraces {
			return
		}
		extended := false
		if depth < maxDepth {
			for _, t := range l.Outgoing(from) {
				if visited[t.To] {
					continue
				}
				visited[t.To] = true
				cur = append(cur, t)
				walk(t.To, depth+1)
				cur = cur[:len(cur)-1]
				visited[t.To] = false
				extended = true
			}
		}
		if !extended && len(cur) > 0 {
			trace := make(Trace, len(cur))
			copy(trace, cur)
			out = append(out, trace)
		}
	}
	walk(start, 0)
	return out
}

// TestTracesFromUnboundedDepth checks that an effectively-unbounded depth
// bound neither panics nor over-allocates: simple paths are bounded by the
// state count, so the path buffer must be capped there.
func TestTracesFromUnboundedDepth(t *testing.T) {
	l := newGraph().init("s0").
		edge("s0", "s1", StringLabel("a")).
		edge("s1", "s2", StringLabel("b")).build()
	traces := l.TracesFrom("s0", int(^uint(0)>>1), -1)
	if len(traces) != 1 || len(traces[0]) != 2 {
		t.Fatalf("TracesFrom with MaxInt depth = %v, want one 2-step trace", traces)
	}
}

// TestAnalysesMatchReference pins the CSR-based traversals to the reference
// implementations on a random corpus: identical reachable sets and
// byte-identical witness traces and trace enumerations.
func TestAnalysesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 150; round++ {
		l := randomLTS(rng, 25, 90, 5)
		ids := l.StateIDs()
		start := ids[rng.Intn(len(ids))]

		if got, want := l.ReachableFrom(start), referenceReachableFrom(l, start); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: ReachableFrom(%s) = %v, want %v", round, start, got, want)
		}

		target := ids[rng.Intn(len(ids))]
		pred := func(id StateID) bool { return id == target }
		gotTrace, gotOK := l.shortestTrace(start, pred)
		wantTrace, wantOK := referenceShortestTrace(l, start, pred)
		if gotOK != wantOK {
			t.Fatalf("round %d: shortestTrace ok = %v, want %v", round, gotOK, wantOK)
		}
		if gotOK && gotTrace.String() != wantTrace.String() {
			t.Fatalf("round %d: shortest trace differs:\n got:\n%s\nwant:\n%s", round, gotTrace, wantTrace)
		}

		maxDepth := rng.Intn(6)
		maxTraces := rng.Intn(40) - 1 // occasionally -1 (unbounded)
		gotTraces := l.TracesFrom(start, maxDepth, maxTraces)
		wantTraces := referenceTracesFrom(l, start, maxDepth, maxTraces)
		if len(gotTraces) != len(wantTraces) {
			t.Fatalf("round %d: TracesFrom returned %d traces, want %d", round, len(gotTraces), len(wantTraces))
		}
		for i := range gotTraces {
			if gotTraces[i].String() != wantTraces[i].String() {
				t.Fatalf("round %d: trace %d differs:\n got:\n%s\nwant:\n%s", round, i, gotTraces[i], wantTraces[i])
			}
		}
	}
}
