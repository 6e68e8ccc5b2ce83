package pseudorisk

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"privascope/internal/accesscontrol"
	"privascope/internal/anonymize"
	"privascope/internal/core"
	"privascope/internal/lts"
	"privascope/internal/schema"
)

// RiskTransition is one dotted risk transition of the paper's Fig. 4: from an
// at-risk state (the actor has accessed the pseudonymised form of the target
// field) towards the inference of the true value, scored against the
// dataset.
type RiskTransition struct {
	// From is the at-risk LTS state the transition starts from.
	From lts.StateID
	// Actor is the actor that could perform the inference.
	Actor string
	// TargetField is the sensitive field whose value could be inferred.
	TargetField string
	// ReadAnonFields are the pseudonymised fields the actor has accessed in
	// the From state (the paper's fieldsread), sorted.
	ReadAnonFields []string
	// Result is the dataset evaluation for the corresponding visible
	// columns.
	Result ScenarioResult
	// Violates reports whether the policy is violated for at least one
	// record.
	Violates bool
}

// LabelString renders the transition for traces and DOT output, e.g.
// "value-risk(weight) by researcher given [age, height]: 4 violations".
func (r RiskTransition) LabelString() string {
	return fmt.Sprintf("value-risk(%s) by %s given [%s]: %d violations",
		r.TargetField, r.Actor, strings.Join(r.ReadAnonFields, ", "), r.Result.Violations)
}

// Annotation is the result of layering pseudonymisation risk onto a privacy
// LTS. The underlying LTS is never modified; the annotation carries the
// additional risk transitions and can render the combined picture (Fig. 4).
type Annotation struct {
	// LTS is the analysed privacy LTS.
	LTS *core.PrivacyLTS
	// Actor is the analysed actor.
	Actor string
	// Policy is the violation policy.
	Policy Policy
	// RiskTransitions are the added risk transitions, one per at-risk state,
	// ordered by state ID.
	RiskTransitions []RiskTransition
}

// Options configures AnalyzeLTS.
type Options struct {
	// Actor is the actor under analysis (the researcher in case study IV-B).
	Actor string
	// Policy is the violation policy.
	Policy Policy
	// Table is the pseudonymised dataset the scores are computed from.
	// "The Risk score ... can only be calculated when data is present.
	// Hence, simulated data can be used at design time, whereas the model
	// can be applied to the running system to get a more accurate picture."
	Table *anonymize.Table
	// FieldColumns maps LTS field names to dataset column names. When a
	// pseudonymised field is not listed, its base name (without the _anon
	// suffix) is used.
	FieldColumns map[string]string
}

// AnalyzeLTS produces the pseudonymisation-risk annotation of a privacy LTS:
// for every reachable state in which the actor has accessed the
// pseudonymised form of the policy's target field, a risk transition is
// computed whose score derives from the dataset restricted to the
// pseudonymised quasi-identifiers read in that state.
//
// Following the paper, the risk only exists if the actor has access rights to
// f_anon but not to f itself; AnalyzeLTS verifies this against the model's
// access-control policy and returns an error otherwise.
//
// ctx is polled between at-risk states and threaded into every dataset
// evaluation, so a cancelled context aborts the annotation promptly with
// ctx.Err().
func AnalyzeLTS(ctx context.Context, p *core.PrivacyLTS, opts Options) (*Annotation, error) {
	if p == nil {
		return nil, errors.New("pseudorisk: privacy LTS must not be nil")
	}
	if strings.TrimSpace(opts.Actor) == "" {
		return nil, errors.New("pseudorisk: actor must not be empty")
	}
	if !p.Vocab.HasActor(opts.Actor) {
		return nil, fmt.Errorf("pseudorisk: actor %q is not part of the model", opts.Actor)
	}
	// The evaluator's scenario cache is what keeps this pass cheap on large
	// models: distinct LTS states frequently share the same fieldsread set,
	// and each distinct set is scored against the dataset only once.
	evaluator, err := NewEvaluator(opts.Table, opts.Policy)
	if err != nil {
		return nil, err
	}
	target := opts.Policy.TargetField
	targetAnon := schema.AnonName(target)
	if !p.Vocab.HasField(targetAnon) {
		return nil, fmt.Errorf("pseudorisk: model has no pseudonymised field %q for target %q", targetAnon, target)
	}
	if err := checkAccessRights(p, opts.Actor, target, targetAnon); err != nil {
		return nil, err
	}

	columnOf := func(field string) string {
		if col, ok := opts.FieldColumns[field]; ok {
			return col
		}
		return schema.BaseName(field)
	}

	annotation := &Annotation{LTS: p, Actor: opts.Actor, Policy: opts.Policy}
	reachable, err := p.Graph.Reachable()
	if err != nil {
		return nil, err
	}
	for _, id := range p.Graph.StateIDs() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !reachable[id] {
			continue
		}
		vec, ok := p.Vector(id)
		if !ok || !vec.Has(opts.Actor, targetAnon) {
			continue
		}
		// fieldsread: the pseudonymised fields (other than the target's) the
		// actor has accessed in this state, mapped to dataset columns.
		var readAnon []string
		var visibleColumns []string
		for _, field := range p.Vocab.Fields() {
			if !schema.IsAnonName(field) || field == targetAnon {
				continue
			}
			if !vec.Has(opts.Actor, field) {
				continue
			}
			readAnon = append(readAnon, field)
			visibleColumns = append(visibleColumns, columnOf(field))
		}
		sort.Strings(readAnon)
		result, err := evaluator.Evaluate(ctx, visibleColumns)
		if err != nil {
			return nil, err
		}
		annotation.RiskTransitions = append(annotation.RiskTransitions, RiskTransition{
			From:           id,
			Actor:          opts.Actor,
			TargetField:    target,
			ReadAnonFields: readAnon,
			Result:         result,
			Violates:       result.Violations > 0,
		})
	}
	sort.Slice(annotation.RiskTransitions, func(i, j int) bool {
		return annotation.RiskTransitions[i].From < annotation.RiskTransitions[j].From
	})
	return annotation, nil
}

// checkAccessRights verifies the precondition of Section III-B: the actor
// holds read rights on the pseudonymised field but not on the original.
func checkAccessRights(p *core.PrivacyLTS, actor, target, targetAnon string) error {
	policy := p.Model.Policy
	if policy == nil {
		return errors.New("pseudorisk: model has no access-control policy; cannot establish that the actor lacks access to the original field")
	}
	var hasAnon, hasOriginal bool
	for _, store := range p.Model.Datastores {
		// Only consult stores whose schema actually declares the field:
		// wildcard grants on an unrelated store must not count as access.
		if store.Schema.Contains(targetAnon) &&
			policy.Allows(actor, store.ID, targetAnon, accesscontrol.PermissionRead) {
			hasAnon = true
		}
		if store.Schema.Contains(target) &&
			policy.Allows(actor, store.ID, target, accesscontrol.PermissionRead) {
			hasOriginal = true
		}
	}
	if !hasAnon {
		return fmt.Errorf("pseudorisk: actor %q has no read access to %q in any datastore; no pseudonymisation risk to analyse", actor, targetAnon)
	}
	if hasOriginal {
		return fmt.Errorf("pseudorisk: actor %q may read the original field %q directly; the value risk is subsumed by the disclosure risk analysis", actor, target)
	}
	return nil
}

// Violations returns the risk transitions that violate the policy.
func (a *Annotation) Violations() []RiskTransition {
	var out []RiskTransition
	for _, rt := range a.RiskTransitions {
		if rt.Violates {
			out = append(out, rt)
		}
	}
	return out
}

// MaxViolations returns the largest violation count across risk transitions.
func (a *Annotation) MaxViolations() int {
	max := 0
	for _, rt := range a.RiskTransitions {
		if rt.Result.Violations > max {
			max = rt.Result.Violations
		}
	}
	return max
}

// ViolationCounts returns the violation count of every risk transition in
// state order — for the case-study model this is the paper's "0, 2 and 4"
// sequence of Fig. 4.
func (a *Annotation) ViolationCounts() []int {
	out := make([]int, len(a.RiskTransitions))
	for i, rt := range a.RiskTransitions {
		out[i] = rt.Result.Violations
	}
	return out
}

// CheckThreshold applies the design-time gate to every risk transition.
func (a *Annotation) CheckThreshold(maxViolationFraction float64) error {
	results := make([]ScenarioResult, len(a.RiskTransitions))
	for i, rt := range a.RiskTransitions {
		results[i] = rt.Result
	}
	return CheckThreshold(results, maxViolationFraction)
}

// DOT renders the privacy LTS together with the risk transitions as dotted
// edges to synthetic risk nodes, reproducing the visual conventions of the
// paper's Fig. 4 (dotted lines indicate potential policy violations).
func (a *Annotation) DOT(name string) string {
	if name == "" {
		name = "pseudonymisation_risk"
	}
	base := a.LTS.DOT(core.DOTOptions{Name: name})
	var b strings.Builder
	// Insert the risk nodes and edges just before the closing brace of the
	// base document so the output remains a single valid DOT graph.
	closing := strings.LastIndex(base, "}")
	if closing < 0 {
		closing = len(base)
	}
	b.WriteString(base[:closing])
	for i, rt := range a.RiskTransitions {
		nodeID := fmt.Sprintf("risk%d", i)
		label := fmt.Sprintf("value risk: %s\ngiven [%s]\nviolations: %d/%d",
			rt.TargetField, strings.Join(rt.ReadAnonFields, ", "), rt.Result.Violations, len(rt.Result.Risks))
		colour := "gray40"
		if rt.Violates {
			colour = "red3"
		}
		fmt.Fprintf(&b, "  %s [label=%q, shape=\"note\", color=%q, fontcolor=%q];\n", nodeID, label, colour, colour)
		fmt.Fprintf(&b, "  %s -> %s [style=\"dotted\", color=%q, fontcolor=%q, label=\"%d violations\"];\n",
			string(rt.From), nodeID, colour, colour, rt.Result.Violations)
	}
	b.WriteString(base[closing:])
	return b.String()
}
