// Package core implements the paper's primary contribution: the automatic
// generation of a formal, state-based model of user privacy — a Labelled
// Transition System (LTS) — from a data-flow model of the system and its
// access-control policies (Section II-B).
//
// Each state of the generated LTS carries 2 × |actors| × |fields| Boolean
// state variables: for every (actor, field) pair, whether the actor HAS
// identified the field and whether the actor COULD identify the field. Each
// transition is an action on personal data (collect, create, read, disclose,
// anon, delete) labelled with the fields, the datastore schema involved, the
// actor performing it, and the purpose.
//
// The extraction rules that map data-flow arrows to actions are those of the
// paper:
//
//   - user  -> actor      : collect
//   - actor -> actor      : disclose
//   - actor -> datastore  : create (anon when the store is anonymised,
//     delete when the flow is marked Delete)
//   - datastore -> actor  : read
//
// Flows of different services interleave; within one service flows execute
// either in their declared order or data-driven (Options.FlowOrdering).
// Beyond the flows the developer declared, the generator can also add
// "potential read" transitions: reads that the access-control policy permits
// even though no flow performs them. These are exactly the events the risk
// analysis of Section III-A attaches likelihood and impact to.
package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"privascope/internal/dataflow"
)

// VarKind distinguishes the two Boolean state variables kept per
// (actor, field) pair.
type VarKind int

// Variable kinds: HasIdentified records that the actor has actually
// identified the field; CouldIdentify records that the actor is in a position
// to identify it (for example because it sits in a datastore the actor may
// read).
const (
	HasIdentified VarKind = iota + 1
	CouldIdentify
)

// String returns "has" or "could".
func (k VarKind) String() string {
	switch k {
	case HasIdentified:
		return "has"
	case CouldIdentify:
		return "could"
	default:
		return "varkind(" + strconv.Itoa(int(k)) + ")"
	}
}

// Variable names one Boolean state variable of a privacy state.
type Variable struct {
	Actor string
	Field string
	Kind  VarKind
}

// String renders the variable, e.g. "could(administrator, diagnosis)".
func (v Variable) String() string {
	return fmt.Sprintf("%s(%s, %s)", v.Kind, v.Actor, v.Field)
}

// Vocabulary fixes the ordering of actors and fields so that state vectors
// from the same model are comparable. It is derived from the data-flow model:
// the actors are the model's actors (excluding the data subject) and the
// fields are the union of every field in any flow or datastore schema.
type Vocabulary struct {
	actors      []string
	fields      []string
	actorIndex  map[string]int
	fieldIndex  map[string]int
	numVars     int
	wordsPerVec int
}

// NewVocabulary builds a vocabulary from explicit actor and field lists. The
// lists are copied and sorted.
func NewVocabulary(actors, fields []string) *Vocabulary {
	v := &Vocabulary{
		actors: append([]string(nil), actors...),
		fields: append([]string(nil), fields...),
	}
	sort.Strings(v.actors)
	sort.Strings(v.fields)
	v.actorIndex = make(map[string]int, len(v.actors))
	for i, a := range v.actors {
		v.actorIndex[a] = i
	}
	v.fieldIndex = make(map[string]int, len(v.fields))
	for i, f := range v.fields {
		v.fieldIndex[f] = i
	}
	v.numVars = 2 * len(v.actors) * len(v.fields)
	v.wordsPerVec = (v.numVars + 63) / 64
	if v.wordsPerVec == 0 {
		v.wordsPerVec = 1
	}
	return v
}

// VocabularyFromModel derives the vocabulary from a data-flow model.
func VocabularyFromModel(m *dataflow.Model) *Vocabulary {
	return NewVocabulary(m.ActorIDs(), m.FieldUniverse())
}

// Actors returns the actors in vocabulary order.
func (v *Vocabulary) Actors() []string { return append([]string(nil), v.actors...) }

// Fields returns the fields in vocabulary order.
func (v *Vocabulary) Fields() []string { return append([]string(nil), v.fields...) }

// NumVariables returns 2 × |actors| × |fields|, the number of Boolean state
// variables of each privacy state (60 for the paper's healthcare example).
func (v *Vocabulary) NumVariables() int { return v.numVars }

// HasActor reports whether the actor is part of the vocabulary.
func (v *Vocabulary) HasActor(actor string) bool {
	_, ok := v.actorIndex[actor]
	return ok
}

// HasField reports whether the field is part of the vocabulary.
func (v *Vocabulary) HasField(field string) bool {
	_, ok := v.fieldIndex[field]
	return ok
}

// index returns the bit position of the variable, or -1 when the actor or
// field is not in the vocabulary.
func (v *Vocabulary) index(actor, field string, kind VarKind) int {
	ai, ok := v.actorIndex[actor]
	if !ok {
		return -1
	}
	fi, ok := v.fieldIndex[field]
	if !ok {
		return -1
	}
	k := 0
	if kind == CouldIdentify {
		k = 1
	}
	return (ai*len(v.fields)+fi)*2 + k
}

// Variable returns the Variable at the given bit position.
func (v *Vocabulary) Variable(bit int) (Variable, bool) {
	if bit < 0 || bit >= v.numVars {
		return Variable{}, false
	}
	kind := HasIdentified
	if bit%2 == 1 {
		kind = CouldIdentify
	}
	pair := bit / 2
	fi := pair % len(v.fields)
	ai := pair / len(v.fields)
	return Variable{Actor: v.actors[ai], Field: v.fields[fi], Kind: kind}, true
}

// StateVector is the set of Boolean state variables of one privacy state,
// stored as a bitset. Vectors are value types; Clone before mutating shared
// ones.
type StateVector struct {
	words []uint64
	vocab *Vocabulary
}

// Get reports the value of the variable. Unknown actors or fields are false.
func (s StateVector) Get(actor, field string, kind VarKind) bool {
	bit := s.vocab.index(actor, field, kind)
	if bit < 0 {
		return false
	}
	return s.words[bit/64]&(1<<uint(bit%64)) != 0
}

// Has reports whether the actor has identified the field in this state.
func (s StateVector) Has(actor, field string) bool { return s.Get(actor, field, HasIdentified) }

// CountTrue returns the number of variables that are true.
func (s StateVector) CountTrue() int {
	n := 0
	for _, w := range s.words {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// TrueVariables returns every variable that is true, in vocabulary order.
func (s StateVector) TrueVariables() []Variable {
	var out []Variable
	for bit := 0; bit < s.vocab.numVars; bit++ {
		if s.words[bit/64]&(1<<uint(bit%64)) != 0 {
			if v, ok := s.vocab.Variable(bit); ok {
				out = append(out, v)
			}
		}
	}
	return out
}

// String renders the true variables of the vector, e.g.
// "{has(doctor, name), could(nurse, name)}". The absolute privacy state
// renders as "{}".
func (s StateVector) String() string {
	vars := s.TrueVariables()
	parts := make([]string, len(vars))
	for i, v := range vars {
		parts[i] = v.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
