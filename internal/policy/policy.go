// Package policy models service privacy policies and checks a generated
// privacy LTS against them.
//
// The paper positions this as the complement of risk analysis: "A system's
// behaviour should be matched against its own privacy policy ... all of these
// solutions only check if a system behaves according to its stated privacy
// policy (our LTS can be similarly analysed)" (Section V). This package
// provides that analysis: a ServicePolicy declares which actors may perform
// which actions on which fields for which purposes, and the Checker walks the
// LTS reporting every transition the stated policy does not cover.
package policy

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"privascope/internal/core"
	"privascope/internal/lts"
)

// Statement is one clause of a service privacy policy: the named actor may
// perform the listed actions on the listed fields for the listed purposes.
// Empty Purposes means "any purpose within the service".
type Statement struct {
	Actor    string        `json:"actor"`
	Actions  []core.Action `json:"actions"`
	Fields   []string      `json:"fields"`
	Purposes []string      `json:"purposes,omitempty"`
}

// Validate checks the statement's identifiers and actions.
func (s Statement) Validate() error {
	if strings.TrimSpace(s.Actor) == "" {
		return errors.New("policy: statement actor must not be empty")
	}
	if len(s.Actions) == 0 {
		return fmt.Errorf("policy: statement for actor %q lists no actions", s.Actor)
	}
	for _, a := range s.Actions {
		if !a.Valid() {
			return fmt.Errorf("policy: statement for actor %q has invalid action %d", s.Actor, int(a))
		}
	}
	if len(s.Fields) == 0 {
		return fmt.Errorf("policy: statement for actor %q lists no fields", s.Actor)
	}
	return nil
}

// covers reports whether the statement permits the (action, field, purpose)
// triple.
func (s Statement) covers(actor string, action core.Action, field, purpose string) bool {
	if s.Actor != actor {
		return false
	}
	actionOK := false
	for _, a := range s.Actions {
		if a == action {
			actionOK = true
			break
		}
	}
	if !actionOK {
		return false
	}
	fieldOK := false
	for _, f := range s.Fields {
		if f == "*" || f == field {
			fieldOK = true
			break
		}
	}
	if !fieldOK {
		return false
	}
	if len(s.Purposes) == 0 {
		return true
	}
	for _, p := range s.Purposes {
		if p == purpose {
			return true
		}
	}
	return false
}

// ServicePolicy is the stated privacy policy of one service: what the service
// tells the data subject its actors will do with their data.
type ServicePolicy struct {
	// Service is the service ID the policy belongs to.
	Service string `json:"service"`
	// Description is the human-readable policy summary shown to users.
	Description string `json:"description,omitempty"`
	// Statements are the permitted handling clauses.
	Statements []Statement `json:"statements"`
}

// Validate checks the policy and its statements.
func (p ServicePolicy) Validate() error {
	if strings.TrimSpace(p.Service) == "" {
		return errors.New("policy: service policy must name a service")
	}
	for i, s := range p.Statements {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("policy: service %q statement %d: %w", p.Service, i, err)
		}
	}
	return nil
}

// Permits reports whether the policy allows the actor to perform the action
// on the field for the purpose.
func (p ServicePolicy) Permits(actor string, action core.Action, field, purpose string) bool {
	for _, s := range p.Statements {
		if s.covers(actor, action, field, purpose) {
			return true
		}
	}
	return false
}

// PolicySet groups the service policies of a system.
type PolicySet struct {
	policies map[string]ServicePolicy
}

// NewPolicySet builds a set from the given policies.
func NewPolicySet(policies ...ServicePolicy) (*PolicySet, error) {
	set := &PolicySet{policies: make(map[string]ServicePolicy, len(policies))}
	for _, p := range policies {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		if _, dup := set.policies[p.Service]; dup {
			return nil, fmt.Errorf("policy: duplicate policy for service %q", p.Service)
		}
		set.policies[p.Service] = p
	}
	return set, nil
}

// Policy returns the policy of the named service.
func (s *PolicySet) Policy(service string) (ServicePolicy, bool) {
	p, ok := s.policies[service]
	return p, ok
}

// Violation is one transition of the privacy LTS that the stated service
// policies do not permit.
type Violation struct {
	// Transition is the offending transition.
	Transition lts.Transition
	// Action, Actor, Fields, Purpose and Service are copied from the label.
	Action  core.Action
	Actor   string
	Fields  []string
	Purpose string
	Service string
	// Reason explains why the transition is not covered.
	Reason string
}

// String renders the violation for reports.
func (v Violation) String() string {
	return fmt.Sprintf("%s(%s) by %s for %q in service %q: %s",
		v.Action, strings.Join(v.Fields, ", "), v.Actor, v.Purpose, v.Service, v.Reason)
}

// ComplianceReport is the outcome of checking an LTS against the stated
// policies.
type ComplianceReport struct {
	// Compliant is true when no violations were found.
	Compliant bool
	// Violations lists every uncovered transition.
	Violations []Violation
	// CheckedTransitions is the number of declared-flow transitions checked.
	CheckedTransitions int
}

// Checker verifies that the behaviour captured by a privacy LTS is covered by
// the system's stated service policies.
type Checker struct {
	policies *PolicySet
}

// NewChecker returns a checker for the given policy set.
func NewChecker(policies *PolicySet) *Checker {
	return &Checker{policies: policies}
}

// Check walks every reachable declared-flow transition of the LTS and reports
// the ones the stated policies do not permit. Potential reads (policy-permitted
// reads outside the declared flows) are not part of the designed behaviour and
// are not checked.
func (c *Checker) Check(p *core.PrivacyLTS) (*ComplianceReport, error) {
	if p == nil {
		return nil, errors.New("policy: privacy LTS must not be nil")
	}
	if c.policies == nil {
		return nil, errors.New("policy: checker has no policy set")
	}
	reachable, err := p.Graph.Reachable()
	if err != nil {
		return nil, err
	}
	report := &ComplianceReport{Compliant: true}
	for _, tr := range p.Graph.Transitions() {
		if !reachable[tr.From] {
			continue
		}
		label := core.LabelOf(tr)
		if label == nil {
			continue
		}
		if label.Potential {
			continue
		}
		report.CheckedTransitions++
		violation, ok := c.checkTransition(tr, label)
		if !ok {
			continue
		}
		report.Violations = append(report.Violations, violation)
		report.Compliant = false
	}
	return report, nil
}

func (c *Checker) checkTransition(tr lts.Transition, label *core.TransitionLabel) (Violation, bool) {
	makeViolation := func(reason string) Violation {
		return Violation{
			Transition: tr,
			Action:     label.Action,
			Actor:      label.Actor,
			Fields:     label.FieldSet(),
			Purpose:    label.Purpose,
			Service:    label.Service,
			Reason:     reason,
		}
	}
	if label.Service == "" {
		return makeViolation("the action is not part of any declared service"), true
	}
	servicePolicy, ok := c.policies.Policy(label.Service)
	if !ok {
		return makeViolation(fmt.Sprintf("service %q has no stated privacy policy", label.Service)), true
	}
	for _, field := range label.Fields {
		if !servicePolicy.Permits(label.Actor, label.Action, field, label.Purpose) {
			return makeViolation(fmt.Sprintf(
				"the stated policy of %q does not permit %s to %s field %q for purpose %q",
				label.Service, label.Actor, label.Action, field, label.Purpose)), true
		}
	}
	return Violation{}, false
}

// PolicyFromModelFlows derives a service policy that exactly covers the
// declared flows of the service in the model-generated LTS. It is a starting
// point for system designers: generate the policy that matches today's
// behaviour, review it, and tighten it.
func PolicyFromModelFlows(p *core.PrivacyLTS, service string) ServicePolicy {
	out := ServicePolicy{Service: service}
	seen := make(map[string]bool)
	for _, tr := range p.Graph.Transitions() {
		label := core.LabelOf(tr)
		if label == nil || label.Potential || label.Service != service {
			continue
		}
		key := label.Actor + "|" + label.Action.String() + "|" + strings.Join(label.Fields, ",") + "|" + label.Purpose
		if seen[key] {
			continue
		}
		seen[key] = true
		statement := Statement{
			Actor:   label.Actor,
			Actions: []core.Action{label.Action},
			Fields:  label.FieldSet(),
		}
		if label.Purpose != "" {
			statement.Purposes = []string{label.Purpose}
		}
		out.Statements = append(out.Statements, statement)
	}
	sort.Slice(out.Statements, func(i, j int) bool {
		si, sj := out.Statements[i], out.Statements[j]
		if si.Actor != sj.Actor {
			return si.Actor < sj.Actor
		}
		return si.Actions[0] < sj.Actions[0]
	})
	return out
}
