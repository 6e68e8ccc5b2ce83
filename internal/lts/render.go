package lts

import (
	"encoding/json"
	"fmt"
	"sort"

	"privascope/internal/dot"
)

// DOTOptions controls how an LTS is rendered to Graphviz DOT.
type DOTOptions struct {
	// Name is the graph name; defaults to "lts".
	Name string
	// StateLabel produces the node label for a state; defaults to the ID.
	StateLabel func(StateID) string
	// StateAttrs may add extra node attributes (e.g. colour risky states).
	StateAttrs func(StateID) map[string]string
	// TransitionAttrs may add extra edge attributes (e.g. dotted risk
	// transitions as in the paper's Fig. 4); the label defaults to the
	// transition's LabelString.
	TransitionAttrs func(Transition) map[string]string
}

// DOT renders the LTS using the given options.
func (l *LTS) DOT(opts DOTOptions) string {
	name := opts.Name
	if name == "" {
		name = "lts"
	}
	g := dot.NewGraph(name)
	g.SetGraphAttr("rankdir", "LR")
	g.SetNodeDefault("shape", "circle")
	g.SetNodeDefault("fontname", "Helvetica")
	g.SetEdgeDefault("fontname", "Helvetica")

	for _, id := range l.order {
		attrs := map[string]string{}
		label := string(id)
		if opts.StateLabel != nil {
			label = opts.StateLabel(id)
		}
		attrs["label"] = label
		if l.hasInitial && id == l.initial {
			attrs["penwidth"] = "2"
		}
		if opts.StateAttrs != nil {
			for k, v := range opts.StateAttrs(id) {
				attrs[k] = v
			}
		}
		g.AddNode(string(id), attrs)
	}
	// Edge labels come from the compiled view's interned table, so each
	// distinct label string is rendered once per model rather than once per
	// transition.
	c := l.Compiled()
	for e := range c.trs {
		t := c.trs[e]
		attrs := map[string]string{}
		if t.Label != nil {
			attrs["label"] = c.labelStrs[c.edgeLabel[e]]
		}
		if opts.TransitionAttrs != nil {
			for k, v := range opts.TransitionAttrs(t) {
				attrs[k] = v
			}
		}
		g.AddEdge(string(t.From), string(t.To), attrs)
	}
	return g.Render()
}

// jsonDoc is the JSON serialisation of an LTS. Labels are flattened to their
// string form; systems that need richer labels should serialise at their own
// layer (package core does).
type jsonDoc struct {
	Initial     string            `json:"initial,omitempty"`
	States      []jsonState       `json:"states"`
	Transitions []jsonTransition  `json:"transitions"`
	Stats       map[string]int    `json:"stats,omitempty"`
	Extra       map[string]string `json:"extra,omitempty"`
}

type jsonState struct {
	ID    string            `json:"id"`
	Props map[string]string `json:"props,omitempty"`
}

type jsonTransition struct {
	From  string `json:"from"`
	To    string `json:"to"`
	Label string `json:"label,omitempty"`
}

// MarshalJSON serialises the LTS structure (states, transitions, label
// strings). The concrete Label types are not preserved.
func (l *LTS) MarshalJSON() ([]byte, error) {
	doc := jsonDoc{}
	if l.hasInitial {
		doc.Initial = string(l.initial)
	}
	for s, id := range l.order {
		doc.States = append(doc.States, jsonState{ID: string(id), Props: l.propsAt(s)})
	}
	for _, t := range l.transitions {
		doc.Transitions = append(doc.Transitions, jsonTransition{From: string(t.From), To: string(t.To), Label: labelString(t.Label)})
	}
	if st, err := l.Stats(); err == nil {
		doc.Stats = map[string]int{
			"states":      st.States,
			"transitions": st.Transitions,
			"terminal":    st.Terminal,
			"depth":       st.Depth,
		}
	}
	return json.Marshal(doc)
}

// UnmarshalJSON rebuilds an LTS from the JSON produced by MarshalJSON.
// Transition labels become StringLabel values.
func (l *LTS) UnmarshalJSON(data []byte) error {
	var doc jsonDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("lts: parsing LTS document: %w", err)
	}
	// Rebuild into a fresh LTS and adopt its fields (the receiver's cached
	// compiled view cannot be copied, only dropped).
	fresh := New()
	for _, s := range doc.States {
		fresh.AddState(StateID(s.ID), s.Props)
	}
	for _, t := range doc.Transitions {
		fresh.AddTransition(StateID(t.From), StateID(t.To), StringLabel(t.Label))
	}
	if doc.Initial != "" {
		fresh.SetInitial(StateID(doc.Initial))
	}
	l.initial = fresh.initial
	l.hasInitial = fresh.hasInitial
	l.index = fresh.index
	l.order = fresh.order
	l.props = fresh.props
	l.transitions = fresh.transitions
	l.out = fresh.out
	l.compiled.Store(nil)
	return nil
}

// LabelHistogram counts transitions per label string, sorted by label. It is
// used in reports to summarise which actions dominate a model. The counting
// runs over the compiled view's interned label table, so no label is
// re-rendered.
func (l *LTS) LabelHistogram() []LabelCount {
	c := l.Compiled()
	counts := make([]int, c.NumLabels())
	for _, lid := range c.edgeLabel {
		counts[lid]++
	}
	out := make([]LabelCount, 0, len(counts))
	for lid, n := range counts {
		out = append(out, LabelCount{Label: c.labelStrs[lid], Count: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}

// LabelCount is one entry of LabelHistogram.
type LabelCount struct {
	Label string
	Count int
}
