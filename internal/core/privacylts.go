package core

import (
	"encoding/json"
	"fmt"
	"sort"
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
	// stores holds each state's datastore contents; states whose contents are
	// equal share one (read-only) map.
	stores []map[string]schema.FieldSet

	// compiled lazily holds the analysis view (see Compiled); single-flighted
	// so concurrent analyses compile the model exactly once.
	compiled flight.Group[struct{}, *CompiledView]
}

// dense resolves a state ID to its index into the per-state payloads; ok is
// false for IDs the model does not know.
func (p *PrivacyLTS) dense(id lts.StateID) (int, bool) {
	s, ok := p.Graph.Compiled().Index(id)
	return int(s), ok && int(s) < len(p.stores)
}

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

// StoreContents returns the fields held by the named datastore in the given
// state.
func (p *PrivacyLTS) StoreContents(id lts.StateID, datastore string) schema.FieldSet {
	return p.StoreMap(id)[datastore]
}

// InitialState returns the initial state ID (the absolute privacy state).
func (p *PrivacyLTS) InitialState() lts.StateID {
	id, _ := p.Graph.Initial()
	return id
}

// States returns every state ID in generation order (s0, s1, ...).
func (p *PrivacyLTS) States() []lts.StateID { return p.Graph.StateIDs() }

// Has reports whether the actor has identified the field in the given state.
func (p *PrivacyLTS) Has(id lts.StateID, actor, field string) bool {
	v, ok := p.Vector(id)
	return ok && v.Has(actor, field)
}

// Could reports whether the actor could identify the field in the given
// state.
func (p *PrivacyLTS) Could(id lts.StateID, actor, field string) bool {
	v, ok := p.Vector(id)
	return ok && v.Could(actor, field)
}

// ActorsWhoCould returns the sorted actors that could identify the field in
// the given state.
func (p *PrivacyLTS) ActorsWhoCould(id lts.StateID, field string) []string {
	return p.actorsWith(id, field, CouldIdentify)
}

// ActorsWhoHave returns the sorted actors that have identified the field in
// the given state.
func (p *PrivacyLTS) ActorsWhoHave(id lts.StateID, field string) []string {
	return p.actorsWith(id, field, HasIdentified)
}

func (p *PrivacyLTS) actorsWith(id lts.StateID, field string, kind VarKind) []string {
	v, ok := p.Vector(id)
	if !ok {
		return nil
	}
	var out []string
	for _, actor := range p.Vocab.actors {
		if v.Get(actor, field, kind) {
			out = append(out, actor)
		}
	}
	return out
}

// FindStates returns the states whose vector satisfies the predicate, in
// generation order.
func (p *PrivacyLTS) FindStates(pred func(StateVector) bool) []lts.StateID {
	var out []lts.StateID
	c := p.Graph.Compiled()
	for s := range p.stores {
		if pred(p.vectorAt(s)) {
			out = append(out, c.StateAt(int32(s)))
		}
	}
	return out
}

// ChangeOf returns the state variables that become true when the transition
// fires (the change relative to the source state, used by the impact
// computation of Section III-A).
func (p *PrivacyLTS) ChangeOf(t lts.Transition) []Variable {
	from, okFrom := p.Vector(t.From)
	to, okTo := p.Vector(t.To)
	if !okFrom || !okTo {
		return nil
	}
	return to.NewlyTrue(from)
}

// PotentialTransitions returns the transitions the generator added beyond the
// declared flows (policy-permitted reads), in insertion order.
func (p *PrivacyLTS) PotentialTransitions() []lts.Transition { return p.transitionsWhere(true) }

// DeclaredTransitions returns the transitions that correspond to declared
// data-flow arrows.
func (p *PrivacyLTS) DeclaredTransitions() []lts.Transition { return p.transitionsWhere(false) }

// transitionsWhere filters the transitions by their label's Potential flag
// over the compiled view's per-edge labels, in insertion order.
func (p *PrivacyLTS) transitionsWhere(potential bool) []lts.Transition {
	v := p.Compiled()
	var out []lts.Transition
	for e, label := range v.labels {
		if label != nil && label.Potential == potential {
			out = append(out, v.Graph.TransitionAt(int32(e)))
		}
	}
	return out
}

// Minimized returns the quotient of the privacy LTS under payload-respecting
// label-signature bisimulation as a new PrivacyLTS, together with the
// mapping from original to representative state IDs. The quotient only
// merges states with identical privacy vectors and datastore contents
// (lts.MinimizeRespecting seeded with the state payload key), so every
// quotient state's payload is exact — not a representative's approximation —
// and every quotient transition's vector delta is an original delta and vice
// versa. Risk assessments therefore see the same disclosure events on the
// quotient as on the original, a metamorphic property the randomized test
// harness checks. (Plain Graph.Minimize without the payload refinement does
// NOT have this property: merging states with different vectors manufactures
// deltas no original transition performs.)
func (p *PrivacyLTS) Minimized() (*PrivacyLTS, map[lts.StateID]lts.StateID) {
	min, mapping := p.Graph.MinimizeRespecting(p.payloadKey)
	reps := min.Compiled()
	w := p.Vocab.wordsPerVec
	q := &PrivacyLTS{
		Model:    p.Model,
		Vocab:    p.Vocab,
		Graph:    min,
		Warnings: p.Warnings,
		vecWords: make([]uint64, reps.NumStates()*w),
		stores:   make([]map[string]schema.FieldSet, reps.NumStates()),
	}
	for i := range q.stores {
		if s, ok := p.dense(reps.StateAt(int32(i))); ok {
			copy(q.vecWords[i*w:], p.vectorAt(s).words)
			q.stores[i] = p.stores[s]
		}
	}
	return q, mapping
}

// payloadKey canonically serialises the state's privacy vector and datastore
// contents; states agreeing on it are interchangeable for every analysis in
// this module.
func (p *PrivacyLTS) payloadKey(id lts.StateID) string {
	s, ok := p.dense(id)
	if !ok {
		return ""
	}
	var b strings.Builder
	b.WriteString(p.vectorAt(s).Key())
	storeMap := p.stores[s]
	storeIDs := make([]string, 0, len(storeMap))
	for sid := range storeMap {
		if !storeMap[sid].IsEmpty() {
			storeIDs = append(storeIDs, sid)
		}
	}
	sort.Strings(storeIDs)
	for _, sid := range storeIDs {
		b.WriteString("|")
		b.WriteString(sid)
		b.WriteString("=")
		b.WriteString(strings.Join(storeMap[sid].Names(), ","))
	}
	return b.String()
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

// Stats computes summary statistics for reports and benchmarks.
func (p *PrivacyLTS) Stats() Stats {
	return Stats{
		States:               p.Graph.StateCount(),
		Transitions:          p.Graph.TransitionCount(),
		PotentialTransitions: p.Compiled().potential,
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
	// HighlightStates colours the listed states (e.g. states where a
	// non-allowed actor could identify a sensitive field).
	HighlightStates map[lts.StateID]string
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
		StateAttrs: func(id lts.StateID) map[string]string {
			attrs := map[string]string{"shape": "ellipse"}
			if colour, ok := opts.HighlightStates[id]; ok {
				attrs["style"] = "filled"
				attrs["fillcolor"] = colour
			}
			return attrs
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
		for sid, fs := range p.stores[s] {
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
