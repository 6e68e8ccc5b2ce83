package core

import (
	"encoding/json"
	"fmt"
	"strings"

	"privascope/internal/dataflow"
	"privascope/internal/flight"
	"privascope/internal/lts"
	"privascope/internal/schema"
)

// PrivacyLTS is the generated formal model of user privacy: an LTS whose
// states carry privacy state vectors and whose transitions carry
// TransitionLabels. It also remembers, per state, the contents of every
// datastore, which the pseudonymisation risk analysis needs.
//
// The per-state payloads are indexed by the state's dense index in Graph
// (generation order): a state ID resolves through the graph's one ID map and
// nothing here is keyed by ID. Generation and the model store build the same
// shape.
type PrivacyLTS struct {
	// Model is the data-flow model the LTS was generated from.
	Model *dataflow.Model
	// Vocab fixes the actor/field ordering of the state vectors.
	Vocab *Vocabulary
	// Graph is the underlying labelled transition system.
	Graph *lts.LTS
	// Warnings lists design inconsistencies found during generation, such as
	// flows whose actor lacks the permission the flow requires.
	Warnings []string

	// vecWords is one slab holding every state's vector: state s owns words
	// [s*w, (s+1)*w) for w = Vocab.WordsPerVector().
	vecWords []uint64
	// storeOf holds each state's index into storeSets, the table of distinct
	// datastore contents (read-only maps) in first-occurrence order.
	storeOf   []int32
	storeSets []map[string]schema.FieldSet

	// compiled lazily holds the analysis view (see Compiled); single-flighted
	// so concurrent analyses compile the model exactly once.
	compiled flight.Group[struct{}, *CompiledView]
}

// dense resolves a state ID to its index into the per-state payloads; ok is
// false for IDs the model does not know.
func (p *PrivacyLTS) dense(id lts.StateID) (int, bool) {
	s, ok := p.Graph.Index(id)
	return int(s), ok && int(s) < len(p.storeOf)
}

// storesAt returns the datastore contents of the state at the dense index.
func (p *PrivacyLTS) storesAt(s int) map[string]schema.FieldSet { return p.storeSets[p.storeOf[s]] }

// vectorAt returns the vector of the state at the dense index; the words
// alias the slab.
func (p *PrivacyLTS) vectorAt(s int) StateVector {
	w := p.Vocab.wordsPerVec
	return StateVector{words: p.vecWords[s*w : (s+1)*w : (s+1)*w], vocab: p.Vocab}
}

// Vector returns the privacy state vector of the given state.
func (p *PrivacyLTS) Vector(id lts.StateID) (StateVector, bool) {
	s, ok := p.dense(id)
	if !ok {
		return StateVector{}, false
	}
	return p.vectorAt(s), true
}

// InitialState returns the initial state ID (the absolute privacy state).
func (p *PrivacyLTS) InitialState() lts.StateID {
	id, _ := p.Graph.Initial()
	return id
}

// Stats summarises the generated model.
type Stats struct {
	States               int
	Transitions          int
	PotentialTransitions int
	StateVariables       int
	Actors               int
	Fields               int
	Warnings             int
}

// Stats computes summary statistics for reports and benchmarks. It reads the
// graph's label table and builds no compiled view.
func (p *PrivacyLTS) Stats() Stats {
	potential := 0
	parts := p.Graph.Parts()
	for e := range int32(len(parts.EdgeLabel)) {
		if label, ok := labelAt(parts, e); ok && label.Potential {
			potential++
		}
	}
	return Stats{
		States:               p.Graph.StateCount(),
		Transitions:          p.Graph.TransitionCount(),
		PotentialTransitions: potential,
		StateVariables:       p.Vocab.NumVariables(),
		Actors:               len(p.Vocab.Actors()),
		Fields:               len(p.Vocab.Fields()),
		Warnings:             len(p.Warnings),
	}
}

// DOTOptions controls rendering of the privacy LTS.
type DOTOptions struct {
	// Name is the graph name; defaults to "privacy_lts".
	Name string
	// VerboseStates lists the true state variables inside each node instead
	// of only the counts. Only sensible for small models.
	VerboseStates bool
}

// DOT renders the privacy LTS to Graphviz DOT.
func (p *PrivacyLTS) DOT(opts DOTOptions) string {
	name := opts.Name
	if name == "" {
		name = "privacy_lts"
	}
	return p.Graph.DOT(lts.DOTOptions{
		Name: name,
		StateLabel: func(id lts.StateID) string {
			vec, _ := p.Vector(id)
			if opts.VerboseStates {
				return fmt.Sprintf("%s\n%s", id, wrapVariables(vec.TrueVariables(), 3))
			}
			return fmt.Sprintf("%s\n(%d/%d)", id, vec.CountTrue(), p.Vocab.NumVariables())
		},
		StateAttrs: func(lts.StateID) map[string]string {
			return map[string]string{"shape": "ellipse"}
		},
		TransitionAttrs: func(t lts.Transition) map[string]string {
			// Potential reads are dashed grey edges, the dotted risk
			// transitions of the paper's Fig. 4.
			attrs := map[string]string{}
			if label := LabelOf(t); label != nil && label.Potential {
				attrs["style"] = "dashed"
				attrs["color"] = "gray40"
				attrs["fontcolor"] = "gray40"
			}
			return attrs
		},
	})
}

func wrapVariables(vars []Variable, perLine int) string {
	if len(vars) == 0 {
		return "{}"
	}
	var lines []string
	for i := 0; i < len(vars); i += perLine {
		end := i + perLine
		if end > len(vars) {
			end = len(vars)
		}
		parts := make([]string, 0, end-i)
		for _, v := range vars[i:end] {
			parts = append(parts, v.String())
		}
		lines = append(lines, strings.Join(parts, ", "))
	}
	return strings.Join(lines, "\n")
}

// jsonState is the serialised form of one privacy state.
type jsonState struct {
	ID        string              `json:"id"`
	Variables []string            `json:"variables,omitempty"`
	Stores    map[string][]string `json:"stores,omitempty"`
}

// jsonTransition is the serialised form of one transition.
type jsonTransition struct {
	From      string   `json:"from"`
	To        string   `json:"to"`
	Action    string   `json:"action"`
	Actor     string   `json:"actor,omitempty"`
	Fields    []string `json:"fields"`
	Datastore string   `json:"datastore,omitempty"`
	Purpose   string   `json:"purpose,omitempty"`
	Service   string   `json:"service,omitempty"`
	Potential bool     `json:"potential,omitempty"`
}

// jsonDoc is the serialised form of a PrivacyLTS.
type jsonDoc struct {
	ModelName   string           `json:"model"`
	Initial     string           `json:"initial"`
	Actors      []string         `json:"actors"`
	Fields      []string         `json:"fields"`
	States      []jsonState      `json:"states"`
	Transitions []jsonTransition `json:"transitions"`
	Warnings    []string         `json:"warnings,omitempty"`
}

// MarshalJSON serialises the privacy LTS, including state variables and
// per-state datastore contents, so external tools can consume the model.
func (p *PrivacyLTS) MarshalJSON() ([]byte, error) {
	doc := jsonDoc{
		ModelName: p.Model.Name,
		Initial:   string(p.InitialState()),
		Actors:    p.Vocab.Actors(),
		Fields:    p.Vocab.Fields(),
		Warnings:  p.Warnings,
	}
	for s, id := range p.Graph.StateIDs() {
		js := jsonState{ID: string(id)}
		for _, v := range p.vectorAt(s).TrueVariables() {
			js.Variables = append(js.Variables, v.String())
		}
		for sid, fs := range p.storesAt(s) {
			if !fs.IsEmpty() {
				if js.Stores == nil {
					js.Stores = make(map[string][]string)
				}
				js.Stores[sid] = fs.Names()
			}
		}
		doc.States = append(doc.States, js)
	}
	for _, t := range p.Graph.Transitions() {
		label := LabelOf(t)
		if label == nil {
			continue
		}
		doc.Transitions = append(doc.Transitions, jsonTransition{
			From:      string(t.From),
			To:        string(t.To),
			Action:    label.Action.String(),
			Actor:     label.Actor,
			Fields:    label.FieldSet(),
			Datastore: label.Datastore,
			Purpose:   label.Purpose,
			Service:   label.Service,
			Potential: label.Potential,
		})
	}
	return json.MarshalIndent(doc, "", "  ")
}
