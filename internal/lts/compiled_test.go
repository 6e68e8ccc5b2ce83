package lts

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// randomLTS builds a pseudo-random LTS: up to maxStates states, up to
// maxEdges transitions over a label alphabet of numLabels strings, an initial
// state most of the time, and occasionally nil labels and unreachable
// islands, so the property tests cover the builder's full surface.
func randomLTS(rng *rand.Rand, maxStates, maxEdges, numLabels int) *LTS {
	l := New()
	n := 1 + rng.Intn(maxStates)
	states := make([]StateID, n)
	for i := range states {
		states[i] = StateID(fmt.Sprintf("s%d", i))
	}
	// Register a random subset of states explicitly (some with props); the
	// rest appear only as transition endpoints.
	for _, id := range states {
		if rng.Intn(3) == 0 {
			l.AddState(id, map[string]string{"n": string(id)})
		}
	}
	edges := rng.Intn(maxEdges + 1)
	for i := 0; i < edges; i++ {
		from := states[rng.Intn(n)]
		to := states[rng.Intn(n)]
		var label Label
		if rng.Intn(8) != 0 { // occasionally nil
			label = StringLabel(fmt.Sprintf("a%d", rng.Intn(numLabels)))
		}
		l.AddTransition(from, to, label)
	}
	if rng.Intn(8) != 0 {
		l.SetInitial(states[rng.Intn(n)])
	}
	return l
}

// TestCompiledRoundTrip is the round-trip property test: for randomly
// generated models, the compiled form reproduces the builder's states,
// initial state, transitions (per-source and per-target, in insertion order)
// and label strings exactly.
func TestCompiledRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 200; round++ {
		l := randomLTS(rng, 30, 120, 6)
		c := l.Compiled()

		// States: same count, same insertion order, dense IDs invert StateAt.
		ids := l.StateIDs()
		if c.NumStates() != len(ids) {
			t.Fatalf("round %d: NumStates = %d, want %d", round, c.NumStates(), len(ids))
		}
		for i, id := range ids {
			if got := c.StateAt(int32(i)); got != id {
				t.Fatalf("round %d: StateAt(%d) = %s, want %s", round, i, got, id)
			}
			dense, ok := c.Index(id)
			if !ok || dense != int32(i) {
				t.Fatalf("round %d: Index(%s) = (%d, %v), want (%d, true)", round, id, dense, ok, i)
			}
		}
		if _, ok := c.Index("no-such-state"); ok {
			t.Fatalf("round %d: Index resolved an unknown state", round)
		}

		// Initial state.
		wantInit, wantOK := l.Initial()
		gotIdx, gotOK := c.InitialIndex()
		if gotOK != wantOK {
			t.Fatalf("round %d: InitialIndex ok = %v, want %v", round, gotOK, wantOK)
		}
		if wantOK && c.StateAt(gotIdx) != wantInit {
			t.Fatalf("round %d: initial = %s, want %s", round, c.StateAt(gotIdx), wantInit)
		}

		// Transitions: global snapshot and CSR per-source/per-target order.
		trs := l.Transitions()
		if c.NumEdges() != len(trs) {
			t.Fatalf("round %d: NumEdges = %d, want %d", round, c.NumEdges(), len(trs))
		}
		for e, want := range trs {
			got := c.TransitionAt(int32(e))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: TransitionAt(%d) = %+v, want %+v", round, e, got, want)
			}
			if c.StateAt(c.From(int32(e))) != want.From || c.StateAt(c.To(int32(e))) != want.To {
				t.Fatalf("round %d: edge %d endpoints disagree", round, e)
			}
			wantLabel := ""
			if want.Label != nil {
				wantLabel = want.Label.LabelString()
			}
			if got := c.LabelString(c.LabelID(int32(e))); got != wantLabel {
				t.Fatalf("round %d: edge %d label = %q, want %q", round, e, got, wantLabel)
			}
		}
		for i, id := range ids {
			wantOut := l.Outgoing(id)
			out := c.Out(int32(i))
			if len(out) != len(wantOut) || c.OutDegree(int32(i)) != len(wantOut) {
				t.Fatalf("round %d: Out(%s) has %d edges, want %d", round, id, len(out), len(wantOut))
			}
			for j, e := range out {
				if got := c.TransitionAt(e); !reflect.DeepEqual(got, wantOut[j]) {
					t.Fatalf("round %d: Out(%s)[%d] = %+v, want %+v", round, id, j, got, wantOut[j])
				}
			}
			wantIn := l.Incoming(id)
			in := c.In(int32(i))
			if len(in) != len(wantIn) {
				t.Fatalf("round %d: In(%s) has %d edges, want %d", round, id, len(in), len(wantIn))
			}
			for j, e := range in {
				if got := c.TransitionAt(e); !reflect.DeepEqual(got, wantIn[j]) {
					t.Fatalf("round %d: In(%s)[%d] = %+v, want %+v", round, id, j, got, wantIn[j])
				}
			}
		}

		// Label interning: table size equals the number of distinct label
		// strings, and every table entry renders its own string.
		distinct := make(map[string]bool)
		for _, tr := range trs {
			s := ""
			if tr.Label != nil {
				s = tr.Label.LabelString()
			}
			distinct[s] = true
		}
		if c.NumLabels() != len(distinct) {
			t.Fatalf("round %d: NumLabels = %d, want %d distinct strings", round, c.NumLabels(), len(distinct))
		}
		for lid := 0; lid < c.NumLabels(); lid++ {
			want := ""
			if label := c.Label(int32(lid)); label != nil {
				want = label.LabelString()
			}
			if got := c.LabelString(int32(lid)); got != want {
				t.Fatalf("round %d: label table entry %d renders %q, table says %q", round, lid, want, got)
			}
		}
	}
}

// TestCompiledCachedAndInvalidated checks the builder-side cache: repeated
// calls share one compiled view, any mutation invalidates it, and no mutation
// reaches a view taken earlier.
func TestCompiledCachedAndInvalidated(t *testing.T) {
	l := New()
	l.SetInitial("s0")
	l.AddTransition("s0", "s1", StringLabel("a"))
	c1 := l.Compiled()
	if c2 := l.Compiled(); c2 != c1 {
		t.Fatal("Compiled not cached between calls")
	}
	l.AddTransition("s1", "s2", StringLabel("b"))
	c3 := l.Compiled()
	if c3 == c1 {
		t.Fatal("Compiled not invalidated by AddTransition")
	}
	if c3.NumEdges() != 2 || c3.NumStates() != 3 {
		t.Fatalf("recompiled view has %d states / %d edges, want 3 / 2", c3.NumStates(), c3.NumEdges())
	}
	l.AddState("island", nil)
	if l.Compiled() == c3 {
		t.Fatal("Compiled not invalidated by AddState")
	}
	l.SetInitial("s1")
	init, ok := l.Compiled().InitialIndex()
	if !ok || l.Compiled().StateAt(init) != "s1" {
		t.Fatal("Compiled not invalidated by SetInitial")
	}

	// A Compiled shares its LTS's ID index, so every way an LTS comes to hold
	// a view — born with it in bulk, or compiling on demand — must copy before
	// the next write. A reader keeps querying the snapshot while the LTS is
	// mutated; under -race a write into shared storage fails the test even
	// where the values happen to agree.
	builderBorn := buildRestoreFixture()
	bulkBorn, err := FromParts(bulkParts(builderBorn.Compiled()))
	if err != nil {
		t.Fatal(err)
	}
	relabeled, err := bulkBorn.Relabeled(make([]Label, bulkBorn.TransitionCount()))
	if err != nil {
		t.Fatal(err)
	}
	for name, l := range map[string]*LTS{"builder-born": builderBorn, "bulk-born": bulkBorn, "relabeled": relabeled} {
		snap := l.Compiled()
		want := snap.Parts()
		for _, field := range []*[]int32{&want.EdgeLabel, &want.EdgeFrom, &want.EdgeTo, &want.OutOff, &want.OutEdges, &want.InOff, &want.InEdges} {
			*field = append([]int32(nil), *field...)
		}
		want.States = append([]StateID(nil), want.States...)
		want.Trs = append([]Transition(nil), want.Trs...)

		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, ok := snap.Index("island"); ok {
					t.Errorf("%s: snapshot resolves a state added after it was taken", name)
					return
				}
				snap.Out(0)
				snap.TransitionAt(0)
			}
		}()
		l.AddState("island", map[string]string{"k": "v"})
		l.AddTransition("island", "s0", StringLabel("back"))
		l.AddTransition("s0", "s1", StringLabel("shared")) // duplicate unless relabeled: scans the derived out lists
		l.AddTransitionUnchecked("s0", "island", nil)
		l.SetInitial("island")
		close(stop)
		<-done

		if !reflect.DeepEqual(snap.Parts(), want) {
			t.Errorf("%s: snapshot changed under mutation", name)
		}
		if init, ok := snap.InitialIndex(); !ok || snap.StateAt(init) != "s0" {
			t.Errorf("%s: snapshot initial state moved", name)
		}
		c := l.Compiled()
		if c == snap || c.NumStates() != 5 {
			t.Errorf("%s: mutated LTS compiles to %d states, want a fresh view of 5", name, c.NumStates())
		}
		added, addedFromS0 := 2, 1
		if name == "relabeled" { // its s0->s1 edges carry nil labels, so "shared" is new
			added, addedFromS0 = 3, 2
		}
		if c.NumEdges() != snap.NumEdges()+added {
			t.Errorf("%s: mutated LTS has %d edges, want %d", name, c.NumEdges(), snap.NumEdges()+added)
		}
		if got, want := len(l.Outgoing("s0")), len(snap.Out(0))+addedFromS0; got != want {
			t.Errorf("%s: Outgoing(s0) has %d transitions, want %d", name, got, want)
		}
		if st, ok := l.State("island"); !ok || st.Props["k"] != "v" {
			t.Errorf("%s: State(island) = %+v, %v", name, st, ok)
		}
	}
}

// countingLabel counts how often it is rendered.
type countingLabel struct {
	str   string
	calls int
}

func (c *countingLabel) LabelString() string { c.calls++; return c.str }

// TestLabelsRenderedOncePerObject: building a graph in bulk renders each
// distinct label object exactly once however many transitions share it, and
// nothing that reads the compiled view renders it again.
func TestLabelsRenderedOncePerObject(t *testing.T) {
	labels := []*countingLabel{{str: "a"}, {str: "b"}, {str: "a"}} // two objects render alike
	ids := []StateID{"s0", "s1", "s2", "s3"}
	var edges []BulkEdge
	for i := 0; i < 60; i++ {
		edges = append(edges, BulkEdge{From: int32(i % 4), To: int32((i + 1) % 4), Label: labels[i%3]})
	}
	l, err := FromParts(ids, 0, edges)
	if err != nil {
		t.Fatal(err)
	}
	c := l.Compiled()
	if c.NumLabels() != 2 || c.Label(0) != Label(labels[0]) {
		t.Fatalf("label table has %d entries led by %v, want 2 led by the first object", c.NumLabels(), c.Label(0))
	}
	l.Stats() //nolint:errcheck // only the rendering count matters here
	l.LabelHistogram()
	l.IsDeterministic()
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
	if !l.HasState(start) {
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
	if !l.HasState(start) {
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
	l := New()
	l.SetInitial("s0")
	l.AddTransition("s0", "s1", StringLabel("a"))
	l.AddTransition("s1", "s2", StringLabel("b"))
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
