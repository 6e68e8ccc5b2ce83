package core

import (
	"fmt"
	"strings"

	"privascope/internal/lts"
	"privascope/internal/schema"
)

// Queries over a generated model and vector edits that only the tests need.

// States returns every state ID in generation order (s0, s1, ...).
func (p *PrivacyLTS) States() []lts.StateID { return p.Graph.StateIDs() }

// StoreContents returns the fields the named datastore holds in the state.
func (p *PrivacyLTS) StoreContents(id lts.StateID, datastore string) schema.FieldSet {
	s, ok := p.dense(id)
	if !ok {
		return schema.FieldSet{}
	}
	return p.storesAt(s)[datastore]
}

// Has reports whether the actor has identified the field in the state.
func (p *PrivacyLTS) Has(id lts.StateID, actor, field string) bool {
	v, ok := p.Vector(id)
	return ok && v.Has(actor, field)
}

// Could reports whether the actor could identify the field in the state.
func (p *PrivacyLTS) Could(id lts.StateID, actor, field string) bool {
	v, ok := p.Vector(id)
	return ok && v.Could(actor, field)
}

// ActorsWhoCould returns the actors that could identify the field in the
// state, in vocabulary order.
func (p *PrivacyLTS) ActorsWhoCould(id lts.StateID, field string) []string {
	return p.actorsWith(id, field, CouldIdentify)
}

// ActorsWhoHave returns the actors that have identified the field in the
// state, in vocabulary order.
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
	for s, id := range p.Graph.StateIDs() {
		if pred(p.vectorAt(s)) {
			out = append(out, id)
		}
	}
	return out
}

// ChangeOf returns the state variables that become true when the transition
// fires.
func (p *PrivacyLTS) ChangeOf(t lts.Transition) []Variable {
	from, okFrom := p.Vector(t.From)
	to, okTo := p.Vector(t.To)
	if !okFrom || !okTo {
		return nil
	}
	return to.NewlyTrue(from)
}

// PotentialTransitions returns the policy-permitted reads the generator
// added beyond the declared flows, in insertion order.
func (p *PrivacyLTS) PotentialTransitions() []lts.Transition { return p.transitionsWhere(true) }

// DeclaredTransitions returns the transitions of declared data-flow arrows.
func (p *PrivacyLTS) DeclaredTransitions() []lts.Transition { return p.transitionsWhere(false) }

func (p *PrivacyLTS) transitionsWhere(potential bool) []lts.Transition {
	v := p.Compiled()
	var out []lts.Transition
	for e := range int32(v.Graph.TransitionCount()) {
		if label := v.Label(e); label != nil && label.Potential == potential {
			out = append(out, v.Graph.TransitionAt(e))
		}
	}
	return out
}

// NewVector returns the all-false state vector of the vocabulary.
func (v *Vocabulary) NewVector() StateVector {
	return StateVector{words: make([]uint64, v.wordsPerVec), vocab: v}
}

// Clone returns an independent copy of the vector.
func (s StateVector) Clone() StateVector {
	return StateVector{words: append([]uint64(nil), s.words...), vocab: s.vocab}
}

// Set sets the variable; unknown actors or fields are ignored.
func (s StateVector) Set(actor, field string, kind VarKind) {
	if bit := s.vocab.index(actor, field, kind); bit >= 0 {
		s.words[bit/64] |= 1 << uint(bit%64)
	}
}

// Clear clears the variable; unknown actors or fields are ignored.
func (s StateVector) Clear(actor, field string, kind VarKind) {
	if bit := s.vocab.index(actor, field, kind); bit >= 0 {
		s.words[bit/64] &^= 1 << uint(bit%64)
	}
}

// IsZero reports whether every variable is false.
func (s StateVector) IsZero() bool { return s.CountTrue() == 0 }

// Equal reports whether both vectors share a vocabulary and their variables.
func (s StateVector) Equal(other StateVector) bool {
	return s.vocab == other.vocab && s.Key() == other.Key()
}

// ParseAction converts an action name back into an Action.
func ParseAction(s string) (Action, error) {
	for a, name := range actionNames {
		if name == strings.ToLower(strings.TrimSpace(s)) {
			return a, nil
		}
	}
	return 0, fmt.Errorf("core: unknown action %q", s)
}

// Could reports whether the actor could identify the field in this state.
func (s StateVector) Could(actor, field string) bool { return s.Get(actor, field, CouldIdentify) }

// Key returns a compact canonical string for the vector, used when hashing
// exploration states.
func (s StateVector) Key() string {
	var b strings.Builder
	for _, w := range s.words {
		fmt.Fprintf(&b, "%016x", w)
	}
	return b.String()
}

// NewlyTrue returns the variables that are true in s but false in prev: the
// change a transition caused. Both vectors must share a vocabulary.
func (s StateVector) NewlyTrue(prev StateVector) []Variable {
	var out []Variable
	for bit := 0; bit < s.vocab.numVars; bit++ {
		mask := uint64(1) << uint(bit%64)
		if s.words[bit/64]&mask != 0 && (len(prev.words) <= bit/64 || prev.words[bit/64]&mask == 0) {
			if v, ok := s.vocab.Variable(bit); ok {
				out = append(out, v)
			}
		}
	}
	return out
}
