// Package pseudorisk implements the paper's pseudonymisation (value) risk
// analysis (Section III-B) and its integration with the generated privacy
// LTS.
//
// The risk being modelled: an actor who may only access the pseudonymised
// form of a sensitive field f can still, with the help of the
// quasi-identifying fields they have already read, pin the true value of f
// for an individual with high confidence — k-anonymisation prevents
// re-identification of records but not of values. For every state of the LTS
// in which the actor has accessed f_anon, a "risk transition" is produced
// whose score is computed from the dataset: the records are divided into
// sets that look identical on the fields already read, and
// risk(r, f) = frequency(f) / size(s) is the marginal probability of the
// record's true value within its set.
//
// Violations are counted against a Policy such as "the researcher must not
// be able to predict an individual's weight to within 5 kg with at least
// 90 % confidence" (case study IV-B, Table I and Fig. 4).
package pseudorisk

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"privascope/internal/anonymize"
	"privascope/internal/flight"
)

// Policy is the violation policy the analysis checks value risks against.
type Policy struct {
	// TargetField is the sensitive field f whose value must not be
	// inferable, e.g. "weight".
	TargetField string `json:"target_field"`
	// Closeness is the range within which a prediction counts as correct
	// (5 kg in the paper's example).
	Closeness float64 `json:"closeness"`
	// Confidence is the probability threshold at or above which a record
	// counts as violated (0.9 in the paper's example).
	Confidence float64 `json:"confidence"`
	// Description documents the policy for reports.
	Description string `json:"description,omitempty"`
}

// Validate checks the policy's fields.
func (p Policy) Validate() error {
	if strings.TrimSpace(p.TargetField) == "" {
		return errors.New("pseudorisk: policy target field must not be empty")
	}
	if p.Closeness < 0 {
		return errors.New("pseudorisk: policy closeness must not be negative")
	}
	if p.Confidence <= 0 || p.Confidence > 1 {
		return errors.New("pseudorisk: policy confidence must be in (0, 1]")
	}
	return nil
}

// ScenarioResult is the outcome of evaluating the policy for one set of
// visible (already read) fields — one column group of the paper's Table I.
type ScenarioResult struct {
	// VisibleFields are the dataset columns the adversary can see, sorted.
	VisibleFields []string
	// Risks holds the per-record value risks.
	Risks []anonymize.ValueRisk
	// Violations is the number of records whose risk meets the policy's
	// confidence threshold.
	Violations int
	// ViolationFraction is Violations divided by the number of records.
	ViolationFraction float64
	// MaxRisk is the highest per-record probability.
	MaxRisk float64
}

// Evaluator computes scenario results for a fixed dataset and policy.
//
// It is built for datasets far larger than the paper's six-row example: the
// equivalence classes of each visible-field set are computed once (through a
// shared anonymize.ClassIndex) and every scenario's full result is cached by
// its canonical visible-field key, so re-evaluating the same field set — as
// the LTS annotation does for every at-risk state with the same fieldsread —
// is a map lookup. An Evaluator is safe for concurrent use; cached results
// (including their Risks slices) are shared between callers and must be
// treated as read-only. The scenario cache is single-flighted with context
// support: concurrent evaluations of the same field set share one
// computation, and one aborted by cancellation is forgotten, not cached.
type Evaluator struct {
	table  *anonymize.Table
	policy Policy
	index  *anonymize.ClassIndex

	results flight.Group[string, ScenarioResult]
}

// EvaluatorOptions tunes an Evaluator beyond the defaults.
type EvaluatorOptions struct {
	// Index, when set, supplies the shared equivalence-class cache; it must
	// index the evaluator's table. Leave nil to let the evaluator build its
	// own. Sharing one index lets other analyses of the same dataset (such
	// as re-identification risk) reuse the partitions.
	Index *anonymize.ClassIndex
}

// NewEvaluator builds an evaluator after validating the policy against the
// dataset, with default options.
func NewEvaluator(table *anonymize.Table, policy Policy) (*Evaluator, error) {
	return NewEvaluatorWithOptions(table, policy, EvaluatorOptions{})
}

// NewEvaluatorWithOptions is NewEvaluator with explicit options.
func NewEvaluatorWithOptions(table *anonymize.Table, policy Policy, opts EvaluatorOptions) (*Evaluator, error) {
	if table == nil {
		return nil, errors.New("pseudorisk: table must not be nil")
	}
	if err := policy.Validate(); err != nil {
		return nil, err
	}
	if _, ok := table.ColumnIndex(policy.TargetField); !ok {
		return nil, fmt.Errorf("pseudorisk: dataset has no column %q for the policy target", policy.TargetField)
	}
	index := opts.Index
	if index == nil {
		index = anonymize.NewClassIndex(table)
	} else if index.Table() != table {
		return nil, errors.New("pseudorisk: class index was built for a different table")
	}
	return &Evaluator{table: table, policy: policy, index: index}, nil
}

// Table returns the dataset the evaluator works on.
func (e *Evaluator) Table() *anonymize.Table { return e.table }

// Index returns the evaluator's equivalence-class cache, for sharing with
// other analyses of the same dataset.
func (e *Evaluator) Index() *anonymize.ClassIndex { return e.index }

// Evaluate computes the scenario result for the given visible columns.
// Columns that do not exist in the dataset are ignored (they cannot help the
// adversary), and the target column is never treated as a visible
// quasi-identifier. Each distinct visible-field set is evaluated at most
// once per evaluator.
//
// The underlying class build and record scoring poll ctx, a caller waiting on
// a concurrent evaluation of the same field set returns its own ctx.Err()
// when ctx is done, and a cancelled evaluation is not cached.
func (e *Evaluator) Evaluate(ctx context.Context, visibleFields []string) (ScenarioResult, error) {
	var visible []string
	for _, f := range visibleFields {
		if f == e.policy.TargetField {
			continue
		}
		if _, ok := e.table.ColumnIndex(f); ok {
			visible = append(visible, f)
		}
	}
	sort.Strings(visible)
	return e.results.Do(ctx, strings.Join(visible, "\x00"), func(ctx context.Context) (ScenarioResult, error) {
		risks, err := anonymize.ValueRisks(ctx, e.table, anonymize.ValueRiskOptions{
			VisibleColumns: visible,
			TargetColumn:   e.policy.TargetField,
			Closeness:      e.policy.Closeness,
			Index:          e.index,
		})
		if err != nil {
			return ScenarioResult{}, err
		}
		result := ScenarioResult{
			VisibleFields: visible,
			Risks:         risks,
			Violations:    anonymize.CountViolations(risks, e.policy.Confidence),
			MaxRisk:       anonymize.MaxRisk(risks),
		}
		if n := e.table.NumRows(); n > 0 {
			result.ViolationFraction = float64(result.Violations) / float64(n)
		}
		return result, nil
	})
}

// EvaluateProgression evaluates the policy for a sequence of visible-field
// sets — typically increasing, as in Table I where the researcher first sees
// height, then age, then both. Results come back in input order; the first
// failing scenario, or a cancelled ctx, ends the progression with its error.
func (e *Evaluator) EvaluateProgression(ctx context.Context, fieldSets [][]string) ([]ScenarioResult, error) {
	out := make([]ScenarioResult, len(fieldSets))
	for i, fields := range fieldSets {
		r, err := e.Evaluate(ctx, fields)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// ErrThresholdExceeded is returned by CheckThreshold when a scenario's
// violation fraction exceeds the configured maximum. "At the design phase, a
// system designer could declare that a number of violations above 50% is
// unacceptable. The system would now throw an error if the above data was
// used."
var ErrThresholdExceeded = errors.New("pseudorisk: violation threshold exceeded")

// CheckThreshold returns an error wrapping ErrThresholdExceeded when any of
// the scenario results has a violation fraction strictly greater than
// maxViolationFraction.
func CheckThreshold(results []ScenarioResult, maxViolationFraction float64) error {
	var offending []string
	for _, r := range results {
		if r.ViolationFraction > maxViolationFraction {
			offending = append(offending, fmt.Sprintf("%s: %d violations (%.0f%%)",
				scenarioName(r), r.Violations, r.ViolationFraction*100))
		}
	}
	if len(offending) == 0 {
		return nil
	}
	return fmt.Errorf("%w: %s (limit %.0f%%); choose another pseudonymisation (e.g. larger k or l-diversity)",
		ErrThresholdExceeded, strings.Join(offending, "; "), maxViolationFraction*100)
}

func scenarioName(r ScenarioResult) string {
	if len(r.VisibleFields) == 0 {
		return "no visible fields"
	}
	return strings.Join(r.VisibleFields, "+")
}
