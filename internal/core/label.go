package core

import (
	"sort"
	"strconv"
	"strings"

	"privascope/internal/lts"
)

// Action is the kind of operation on personal data a transition represents.
// The six actions are those of the paper's privacy model (Section II-B).
type Action int

// Actions. They begin at one so the zero value is invalid.
const (
	ActionCollect Action = iota + 1
	ActionCreate
	ActionRead
	ActionDisclose
	ActionAnon
	ActionDelete
)

var actionNames = map[Action]string{
	ActionCollect:  "collect",
	ActionCreate:   "create",
	ActionRead:     "read",
	ActionDisclose: "disclose",
	ActionAnon:     "anon",
	ActionDelete:   "delete",
}

// String returns the lower-case action name.
func (a Action) String() string {
	if s, ok := actionNames[a]; ok {
		return s
	}
	return "action(" + strconv.Itoa(int(a)) + ")"
}

// Valid reports whether a is one of the six defined actions.
func (a Action) Valid() bool {
	_, ok := actionNames[a]
	return ok
}

// TransitionLabel is the label attached to every transition of the privacy
// LTS. It matches the labelling of the paper's model: the action, the set of
// data fields, the data schema (datastore) the fields belong to, the actor
// performing the action, and the optional purpose. The risk annotation the
// paper mentions is attached later by the analyses (packages risk and
// pseudorisk), which never mutate labels; they produce annotated findings
// referencing transitions instead.
type TransitionLabel struct {
	// Action is the kind of operation performed.
	Action Action
	// Actor is the actor performing the action. For collect actions this is
	// the actor receiving the data from the data subject.
	Actor string
	// Fields is the sorted set of data fields involved.
	Fields []string
	// Datastore is the datastore (data schema) involved, if any.
	Datastore string
	// Purpose is the purpose recorded on the data-flow arrow, if any.
	Purpose string
	// Service is the service the flow belongs to; empty for potential
	// transitions added outside any declared flow.
	Service string
	// FlowKey identifies the originating data-flow arrow; empty for
	// potential transitions.
	FlowKey string
	// Potential marks a transition that no declared flow performs but that
	// the access-control policy permits (e.g. an Administrator reading the
	// EHR). These are the transitions risk analysis attaches likelihood to.
	Potential bool
	// Counterpart is the actor on the other side of a collect or disclose
	// (the data subject or the disclosing actor); informational.
	Counterpart string
}

// NewTransitionLabel builds a label with the field set copied and sorted.
func NewTransitionLabel(action Action, actor string, fields []string) *TransitionLabel {
	sorted := append([]string(nil), fields...)
	sort.Strings(sorted)
	return &TransitionLabel{Action: action, Actor: actor, Fields: sorted}
}

// LabelString implements lts.Label. The rendering is stable and is used for
// determinism checks and DOT output, e.g.
// "read(name, treatment) by nurse on ehr [administer treatment]" and
// "?read(diagnosis) by administrator on ehr" for potential reads.
func (t *TransitionLabel) LabelString() string {
	var b strings.Builder
	if t.Potential {
		b.WriteString("?")
	}
	b.WriteString(t.Action.String())
	b.WriteString("(")
	b.WriteString(strings.Join(t.Fields, ", "))
	b.WriteString(")")
	if t.Actor != "" {
		b.WriteString(" by ")
		b.WriteString(t.Actor)
	}
	if t.Datastore != "" {
		b.WriteString(" on ")
		b.WriteString(t.Datastore)
	}
	if t.Purpose != "" {
		b.WriteString(" [")
		b.WriteString(t.Purpose)
		b.WriteString("]")
	}
	return b.String()
}

// FieldSet returns the label's fields as a sorted copy.
func (t *TransitionLabel) FieldSet() []string { return append([]string(nil), t.Fields...) }

var _ lts.Label = (*TransitionLabel)(nil)

// LabelOf extracts the TransitionLabel from an LTS transition generated by
// this package. It returns nil when the transition carries a different label
// type.
func LabelOf(tr lts.Transition) *TransitionLabel {
	label, ok := tr.Label.(*TransitionLabel)
	if !ok {
		return nil
	}
	return label
}
