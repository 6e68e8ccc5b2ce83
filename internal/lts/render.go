package lts

import (
	"encoding/json"
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

	for s, id := range l.states {
		attrs := map[string]string{}
		label := string(id)
		if opts.StateLabel != nil {
			label = opts.StateLabel(id)
		}
		attrs["label"] = label
		if int32(s) == l.initial {
			attrs["penwidth"] = "2"
		}
		if opts.StateAttrs != nil {
			for k, v := range opts.StateAttrs(id) {
				attrs[k] = v
			}
		}
		g.AddNode(string(id), attrs)
	}
	// Edge labels come from the interned table, so each distinct label is
	// rendered once per model rather than once per transition.
	for e, t := range l.Transitions() {
		attrs := map[string]string{}
		if lid := l.edgeLabel[e]; lid >= 0 {
			attrs["label"] = l.labelStrs[lid]
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
	Initial     string           `json:"initial,omitempty"`
	States      []jsonState      `json:"states"`
	Transitions []jsonTransition `json:"transitions"`
	Stats       map[string]int   `json:"stats,omitempty"`
}

type jsonState struct {
	ID string `json:"id"`
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
	if init, ok := l.Initial(); ok {
		doc.Initial = string(init)
	}
	for _, id := range l.states {
		doc.States = append(doc.States, jsonState{ID: string(id)})
	}
	for _, t := range l.Transitions() {
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

// LabelHistogram counts transitions per label string, sorted by label. It is
// used in reports to summarise which actions dominate a model. The counting
// runs over the interned label table, so no label is re-rendered; table
// entries that render alike share a line, and a nil label counts as "".
func (l *LTS) LabelHistogram() []LabelCount {
	counts := make([]int, l.NumLabels()+1) // counts[lid+1]; nil's is counts[0]
	for _, lid := range l.edgeLabel {
		counts[lid+1]++
	}
	out := make([]LabelCount, 0, len(counts))
	if counts[0] > 0 {
		out = append(out, LabelCount{Count: counts[0]})
	}
	for lid, str := range l.labelStrs {
		out = append(out, LabelCount{Label: str, Count: counts[lid+1]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	merged := out[:0]
	for _, lc := range out {
		if k := len(merged) - 1; k >= 0 && merged[k].Label == lc.Label {
			merged[k].Count += lc.Count
		} else {
			merged = append(merged, lc)
		}
	}
	return merged
}

// LabelCount is one entry of LabelHistogram.
type LabelCount struct {
	Label string
	Count int
}
