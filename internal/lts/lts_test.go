package lts

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// graph collects a test LTS one edge at a time: a state is registered on
// first mention and a repeated (from, label string, to) triple is dropped, so
// fixtures and random corpora read like edge lists. A state is named by the
// ID the LTS gives it, so the i-th state mentioned must be "s<i>". build
// ends in FromParts.
type graph struct {
	ids     []StateID
	index   map[StateID]int32
	initial int
	edges   []BulkEdge
	seen    map[string]bool
}

func newGraph() *graph {
	return &graph{index: map[StateID]int32{}, initial: -1, seen: map[string]bool{}}
}

// state returns the dense index of id, registering it if it is new.
func (g *graph) state(id StateID) int32 {
	if _, ok := g.index[id]; !ok {
		if want := StateID(fmt.Sprint("s", len(g.ids))); id != want {
			panic(fmt.Sprintf("test graph: new state %q, want %q", id, want))
		}
		g.index[id] = int32(len(g.ids))
		g.ids = append(g.ids, id)
	}
	return g.index[id]
}

func (g *graph) init(id StateID) *graph { g.initial = int(g.state(id)); return g }

// edge adds from --label--> to unless the graph already has that triple.
func (g *graph) edge(from, to StateID, label Label) *graph {
	e := BulkEdge{From: g.state(from), To: g.state(to), Label: label}
	if k := fmt.Sprint(e.From, " ", e.To, " ", labelString(label)); !g.seen[k] {
		g.seen[k] = true
		g.edges = append(g.edges, e)
	}
	return g
}

func (g *graph) build() *LTS {
	l, err := FromParts(len(g.ids), g.initial, g.edges)
	if err != nil {
		panic(err)
	}
	return l
}

// chain builds the LTS  s0 --a--> s1 --b--> s2 --c--> s3.
func chain() *LTS {
	return newGraph().init("s0").
		edge("s0", "s1", StringLabel("a")).
		edge("s1", "s2", StringLabel("b")).
		edge("s2", "s3", StringLabel("c")).build()
}

// diamond builds an LTS with two paths from s0 to s3 and a detached state s4.
func diamond() *LTS {
	g := newGraph().init("s0").
		edge("s0", "s1", StringLabel("left")).
		edge("s0", "s2", StringLabel("right")).
		edge("s1", "s3", StringLabel("join")).
		edge("s2", "s3", StringLabel("join"))
	g.state("s4")
	return g.build()
}

func TestInitial(t *testing.T) {
	if _, ok := newGraph().edge("s0", "s1", nil).build().Initial(); ok {
		t.Error("an LTS built without an initial index should have no initial state")
	}
	if id, ok := chain().Initial(); !ok || id != "s0" {
		t.Errorf("Initial() = %q, %v", id, ok)
	}
}

func TestOutgoingIncomingSuccessors(t *testing.T) {
	l := diamond()
	out := l.Outgoing("s0")
	if len(out) != 2 {
		t.Fatalf("Outgoing(s0) = %d transitions", len(out))
	}
	in := l.Incoming("s3")
	if len(in) != 2 {
		t.Fatalf("Incoming(s3) = %d transitions", len(in))
	}
	succ := l.Successors("s0")
	if len(succ) != 2 || succ[0] != "s1" || succ[1] != "s2" {
		t.Errorf("Successors(s0) = %v", succ)
	}
	if len(l.Successors("s3")) != 0 {
		t.Error("Successors(s3) should be empty")
	}
}

func TestReachability(t *testing.T) {
	l := diamond()
	reach, err := l.Reachable()
	if err != nil {
		t.Fatal(err)
	}
	if len(reach) != 4 {
		t.Errorf("len(Reachable()) = %d, want 4", len(reach))
	}
	if reach["s4"] {
		t.Error("s4 should be unreachable")
	}
	unreach, err := l.UnreachableStates()
	if err != nil {
		t.Fatal(err)
	}
	if len(unreach) != 1 || unreach[0] != "s4" {
		t.Errorf("UnreachableStates() = %v", unreach)
	}
	term, err := l.TerminalStates()
	if err != nil {
		t.Fatal(err)
	}
	if len(term) != 1 || term[0] != "s3" {
		t.Errorf("TerminalStates() = %v", term)
	}

	empty := newGraph().build()
	if _, err := empty.Reachable(); err != ErrNoInitialState {
		t.Errorf("Reachable without initial = %v, want ErrNoInitialState", err)
	}
}

func TestIsDeterministic(t *testing.T) {
	if !chain().IsDeterministic() {
		t.Error("chain should be deterministic")
	}
	l := newGraph().init("s0").
		edge("s0", "s1", StringLabel("a")).
		edge("s0", "s2", StringLabel("a")).build()
	if l.IsDeterministic() {
		t.Error("two a-transitions to different states should be nondeterministic")
	}
}

func TestStats(t *testing.T) {
	l := diamond()
	st, err := l.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.States != 5 || st.Transitions != 4 {
		t.Errorf("Stats sizes = %+v", st)
	}
	if st.Terminal != 1 || st.Unreachable != 1 {
		t.Errorf("Stats terminal/unreachable = %+v", st)
	}
	if st.Depth != 2 {
		t.Errorf("Stats.Depth = %d, want 2", st.Depth)
	}
	if st.MaxOutDegree != 2 {
		t.Errorf("Stats.MaxOutDegree = %d, want 2", st.MaxOutDegree)
	}
	if _, err := newGraph().build().Stats(); err == nil {
		t.Error("Stats without initial state should fail")
	}
}

func TestExistsAndAlways(t *testing.T) {
	l := chain()
	found, trace, err := l.Exists(func(id StateID) bool { return id == "s2" })
	if err != nil || !found {
		t.Fatalf("Exists(s2) = %v, %v", found, err)
	}
	if len(trace) != 2 {
		t.Errorf("witness trace length = %d, want 2", len(trace))
	}
	if trace.End("s0") != "s2" {
		t.Errorf("trace end = %s", trace.End("s0"))
	}

	found, _, err = l.Exists(func(id StateID) bool { return id == "missing" })
	if err != nil || found {
		t.Errorf("Exists(missing) = %v, %v", found, err)
	}

	ok, counter, err := l.Always(func(id StateID) bool { return id != "s3" })
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("Always should fail because s3 is reachable")
	}
	if counter.End("s0") != "s3" {
		t.Errorf("counter-example ends at %s", counter.End("s0"))
	}
	ok, _, err = l.Always(func(id StateID) bool { return true })
	if err != nil || !ok {
		t.Errorf("Always(true) = %v, %v", ok, err)
	}

	if _, _, err := newGraph().build().Exists(func(StateID) bool { return true }); err == nil {
		t.Error("Exists without initial should fail")
	}
}

func TestFindStatesAndTransitions(t *testing.T) {
	l := diamond()
	states, err := l.FindStates(func(id StateID) bool { return strings.HasPrefix(string(id), "s") })
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 4 {
		t.Errorf("FindStates = %v", states)
	}
	trans, err := l.FindTransitions(func(tr Transition) bool { return tr.Label.LabelString() == "join" })
	if err != nil {
		t.Fatal(err)
	}
	if len(trans) != 2 {
		t.Errorf("FindTransitions(join) = %v", trans)
	}
}

func TestShortestTraceTo(t *testing.T) {
	l := diamond()
	trace, err := l.ShortestTraceTo("s3")
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != 2 {
		t.Errorf("trace length = %d, want 2", len(trace))
	}
	if _, err := l.ShortestTraceTo("s4"); err == nil {
		t.Error("trace to unreachable state should fail")
	}
	// Trace to the initial state itself is empty.
	trace, err = l.ShortestTraceTo("s0")
	if err != nil || len(trace) != 0 {
		t.Errorf("trace to initial = %v, %v", trace, err)
	}
}

func TestTracesFrom(t *testing.T) {
	l := diamond()
	traces := l.TracesFrom("s0", 10, -1)
	if len(traces) != 2 {
		t.Fatalf("TracesFrom(s0) = %d traces, want 2", len(traces))
	}
	for _, tr := range traces {
		if tr.End("s0") != "s3" {
			t.Errorf("trace should end at s3, got %s", tr.End("s0"))
		}
	}
	// Depth limiting truncates paths.
	short := l.TracesFrom("s0", 1, -1)
	for _, tr := range short {
		if len(tr) > 1 {
			t.Errorf("depth-1 trace has length %d", len(tr))
		}
	}
	// maxTraces bounds the enumeration.
	bounded := l.TracesFrom("s0", 10, 1)
	if len(bounded) != 1 {
		t.Errorf("bounded traces = %d, want 1", len(bounded))
	}
}

func TestTransitionString(t *testing.T) {
	tr := Transition{From: "a", To: "b", Label: StringLabel("x")}
	if got := tr.String(); got != "a --[x]--> b" {
		t.Errorf("Transition.String() = %q", got)
	}
	noLabel := Transition{From: "a", To: "b"}
	if got := noLabel.String(); got != "a --[]--> b" {
		t.Errorf("Transition.String() without label = %q", got)
	}
}

func TestTraceString(t *testing.T) {
	l := chain()
	trace, err := l.ShortestTraceTo("s2")
	if err != nil {
		t.Fatal(err)
	}
	s := trace.String()
	if !strings.Contains(s, "s0 --[a]--> s1") || !strings.Contains(s, "s1 --[b]--> s2") {
		t.Errorf("Trace.String() = %q", s)
	}
}

func TestLTSString(t *testing.T) {
	s := chain().String()
	if !strings.Contains(s, "4 states, 3 transitions") {
		t.Errorf("String() = %q", s)
	}
	if !strings.Contains(s, "initial: s0") {
		t.Errorf("String() missing initial: %q", s)
	}
}

func TestDOT(t *testing.T) {
	l := chain()
	out := l.DOT(DOTOptions{Name: "fig3"})
	for _, want := range []string{"digraph fig3 {", `label="a"`, "s0 -> s1", "s2 -> s3"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
	// Custom options.
	out = l.DOT(DOTOptions{
		StateLabel: func(id StateID) string { return "S:" + string(id) },
		StateAttrs: func(id StateID) map[string]string {
			if id == "s3" {
				return map[string]string{"color": "red"}
			}
			return nil
		},
		TransitionAttrs: func(tr Transition) map[string]string {
			if tr.Label.LabelString() == "c" {
				return map[string]string{"style": "dotted"}
			}
			return nil
		},
	})
	if !strings.Contains(out, `label="S:s0"`) {
		t.Error("custom state label not applied")
	}
	if !strings.Contains(out, `color="red"`) {
		t.Error("custom state attrs not applied")
	}
	if !strings.Contains(out, `style="dotted"`) {
		t.Error("custom transition attrs not applied")
	}
}

// TestJSONRoundTrip: the document MarshalJSON writes decodes back to the
// LTS's initial state, states, transitions and label strings.
func TestJSONRoundTrip(t *testing.T) {
	l := diamond()
	data, err := json.Marshal(l)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var back jsonDoc
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if back.Initial != "s0" || len(back.States) != l.StateCount() || back.Stats["states"] != l.StateCount() {
		t.Errorf("round trip lost the states: %+v", back)
	}
	if len(back.Transitions) != l.TransitionCount() {
		t.Fatalf("round trip has %d transitions, want %d", len(back.Transitions), l.TransitionCount())
	}
	for i, tr := range l.Transitions() {
		if got := back.Transitions[i]; got.From != string(tr.From) || got.To != string(tr.To) || got.Label != tr.Label.LabelString() {
			t.Errorf("transition %d round-trips as %+v, want %s", i, got, tr)
		}
	}
}

func TestLabelHistogram(t *testing.T) {
	l := diamond()
	hist := l.LabelHistogram()
	want := map[string]int{"join": 2, "left": 1, "right": 1}
	if len(hist) != len(want) {
		t.Fatalf("histogram = %v", hist)
	}
	for _, lc := range hist {
		if want[lc.Label] != lc.Count {
			t.Errorf("histogram[%s] = %d, want %d", lc.Label, lc.Count, want[lc.Label])
		}
	}
	// Sorted by label.
	for i := 1; i < len(hist); i++ {
		if hist[i-1].Label > hist[i].Label {
			t.Errorf("histogram not sorted: %v", hist)
		}
	}
}

func TestTransitionsReturnsCopy(t *testing.T) {
	l := chain()
	ts := l.Transitions()
	ts[0].From = "corrupted"
	if l.Transitions()[0].From == "corrupted" {
		t.Error("Transitions() must return a copy")
	}
	ids := l.StateIDs()
	ids[0] = "corrupted"
	if l.StateIDs()[0] == "corrupted" {
		t.Error("StateIDs() must return a copy")
	}
}
