package report

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"privascope/internal/core"
	"privascope/internal/policy"
	"privascope/internal/pseudorisk"
	"privascope/internal/risk"
)

// ModelSummary builds a report section describing a generated privacy LTS:
// its size, the action mix, and any generation warnings.
func ModelSummary(p *core.PrivacyLTS) *Report {
	r := NewReport("Privacy model: " + p.Model.Name)
	stats := p.Stats()
	overview := NewTable("metric", "value")
	overview.AddRow("actors", strconv.Itoa(stats.Actors))
	overview.AddRow("fields", strconv.Itoa(stats.Fields))
	overview.AddRow("state variables per state", strconv.Itoa(stats.StateVariables))
	overview.AddRow("states", strconv.Itoa(stats.States))
	overview.AddRow("transitions", strconv.Itoa(stats.Transitions))
	overview.AddRow("potential-read transitions", strconv.Itoa(stats.PotentialTransitions))
	r.AddTable("Model size", "", overview)

	hist := NewTable("transition label", "count")
	for _, lc := range p.Graph.LabelHistogram() {
		hist.AddRow(lc.Label, strconv.Itoa(lc.Count))
	}
	r.AddTable("Transition labels", "", hist)

	if len(p.Warnings) > 0 {
		r.AddSection("Warnings", "- "+strings.Join(p.Warnings, "\n- "))
	}
	return r
}

// DisclosureAssessment builds the report for an unwanted-disclosure analysis
// (case study IV-A).
func DisclosureAssessment(a *risk.Assessment) *Report {
	r := NewReport("Unwanted-disclosure risk assessment for " + a.Profile.ID)
	r.AddSection("Consent",
		fmt.Sprintf("Consented services: %s\nAllowed actors: %s\nNon-allowed actors: %s",
			orNone(strings.Join(a.Profile.ConsentedServices, ", ")),
			orNone(strings.Join(a.AllowedActors, ", ")),
			orNone(strings.Join(a.NonAllowedActors, ", "))))

	r.AddTable("Findings", fmt.Sprintf("Overall risk: %s", a.OverallRisk), findingsTable(a.Findings))

	mitigations := NewTable("actor", "risk", "suggested mitigation")
	type advice struct{ actor, mitigation string }
	seen := make(map[advice]bool)
	for i := range a.Findings {
		f := &a.Findings[i]
		if f.Risk < risk.LevelMedium || f.Mitigation == "" {
			continue
		}
		key := advice{f.Actor, f.Mitigation}
		if seen[key] {
			continue
		}
		seen[key] = true
		mitigations.AddRow(f.Actor, f.Risk.String(), f.Mitigation)
	}
	if mitigations.NumRows() > 0 {
		r.AddTable("Suggested mitigations", "", mitigations)
	}
	return r
}

// findingRows is the row source of the findings table: it formats each cell
// straight from the assessment's findings, which it only reads, so a listing
// of a hundred thousand findings holds no text of its own.
type findingRows struct {
	findings []risk.Finding
	// scores holds the "0.90 (high)" text of every distinct impact and
	// likelihood, a handful per assessment; shown[row] indexes the two that
	// the row shows.
	scores []string
	shown  [][2]int32
}

func findingsTable(findings []risk.Finding) *Table {
	rows := &findingRows{findings: findings, shown: make([][2]int32, len(findings))}
	// A value is keyed by its bits, so that a NaN finds its own entry.
	type score struct {
		bits  uint64
		level risk.Level
	}
	index := make(map[score]int32)
	intern := func(v float64, level risk.Level) int32 {
		key := score{math.Float64bits(v), level}
		i, ok := index[key]
		if !ok {
			i = int32(len(rows.scores))
			index[key] = i
			rows.scores = append(rows.scores, fmt.Sprintf("%.2f (%s)", v, level))
		}
		return i
	}
	for i := range findings {
		f := &findings[i]
		rows.shown[i] = [2]int32{intern(f.Impact, f.ImpactLevel), intern(f.Likelihood, f.LikelihoodLevel)}
	}
	return &Table{rows: rows,
		headers: []string{"risk", "actor", "action", "datastore", "driving field", "impact", "likelihood", "explanation"}}
}

func (r *findingRows) numRows() int { return len(r.findings) }

func (r *findingRows) appendCell(dst []byte, row, col int) []byte {
	f := &r.findings[row]
	switch col {
	case 0:
		return append(dst, f.Risk.String()...)
	case 1:
		return append(dst, f.Actor...)
	case 2:
		return append(dst, f.Action.String()...)
	case 3:
		return append(dst, f.Datastore...)
	case 4:
		return append(dst, f.DrivingField...)
	case 5:
		return append(dst, r.scores[r.shown[row][0]]...)
	case 6:
		return append(dst, r.scores[r.shown[row][1]]...)
	default:
		return append(dst, f.Explanation...)
	}
}

// RiskComparison builds the before/after table of a mitigation (case study
// IV-A: Medium reduced to Low).
func RiskComparison(changes []risk.Change) *Table {
	t := NewTable("actor", "datastore", "field", "risk before", "risk after")
	for _, c := range changes {
		t.AddRow(c.Actor, c.Datastore, c.Field, c.Before.String(), c.After.String())
	}
	return t
}

// PopulationSummary builds the report for a population-wide disclosure-risk
// analysis: the risk distribution and the actors responsible for the most
// at-risk users.
func PopulationSummary(p *risk.PopulationAssessment) *Report {
	r := NewReport("Population risk summary")
	dist := NewTable("overall risk", "users")
	for _, level := range []risk.Level{risk.LevelHigh, risk.LevelMedium, risk.LevelLow, risk.LevelNone} {
		if n, ok := p.Distribution[level]; ok {
			dist.AddRow(level.String(), strconv.Itoa(n))
		}
	}
	r.AddTable("Risk distribution",
		fmt.Sprintf("%d of %d users are at medium risk or above", p.UsersAtRisk, len(p.Users)), dist)

	actors := NewTable("actor", "users whose top risk it causes")
	for _, actor := range p.WorstActorsRanked() {
		actors.AddRow(actor, strconv.Itoa(p.WorstActors[actor]))
	}
	if actors.NumRows() > 0 {
		r.AddTable("Actors to mitigate first", "", actors)
	}
	users := NewTable("user", "overall risk", "findings", "worst actor", "driving field")
	for _, u := range p.Users {
		users.AddRow(u.UserID, u.OverallRisk.String(), strconv.Itoa(u.Findings), u.WorstActor, u.HighestImpactField)
	}
	r.AddTable("Per-user results", "", users)
	return r
}

// TableI renders the paper's Table I: one row per record with its
// quasi-identifier values and the risk fraction under each visible-field
// scenario, plus the closing "Violations" row.
func TableI(records *pseudorisk.Evaluator, results []pseudorisk.ScenarioResult) *Table {
	return TableICapped(records, results, 0)
}

// TableICapped is TableI with the per-record rows capped at maxRows
// (0 or negative means no cap): on a million-row dataset the aggregate rows
// are what matters, and rendering every record would dwarf the analysis
// itself. When rows are elided, a summary row notes how many; the
// "Violations" row always covers the full dataset.
func TableICapped(records *pseudorisk.Evaluator, results []pseudorisk.ScenarioResult, maxRows int) *Table {
	tbl := records.Table()
	headers := append([]string{}, tbl.ColumnNames()...)
	for _, res := range results {
		headers = append(headers, scenarioHeader(res)+" risk")
	}
	out := NewTable(headers...)
	shown := tbl.NumRows()
	if maxRows > 0 && shown > maxRows {
		shown = maxRows
	}
	for r := 0; r < shown; r++ {
		row := make([]string, 0, len(headers))
		for _, col := range tbl.ColumnNames() {
			v, err := tbl.Value(r, col)
			if err != nil {
				row = append(row, "?")
				continue
			}
			row = append(row, v.String())
		}
		for _, res := range results {
			if r < len(res.Risks) {
				row = append(row, res.Risks[r].Fraction().String())
			} else {
				row = append(row, "")
			}
		}
		out.AddRow(row...)
	}
	if hidden := tbl.NumRows() - shown; hidden > 0 {
		elided := make([]string, len(headers))
		elided[0] = fmt.Sprintf("... %d more records", hidden)
		out.AddRow(elided...)
	}
	violations := make([]string, len(tbl.ColumnNames()))
	if len(violations) > 0 {
		violations[0] = "Violations:"
	}
	for _, res := range results {
		violations = append(violations, strconv.Itoa(res.Violations))
	}
	out.AddRow(violations...)
	return out
}

func scenarioHeader(res pseudorisk.ScenarioResult) string {
	if len(res.VisibleFields) == 0 {
		return "(none)"
	}
	return strings.Join(res.VisibleFields, "+")
}

// PseudonymisationAnnotation builds the report for an LTS-level
// pseudonymisation risk analysis (Fig. 4).
func PseudonymisationAnnotation(a *pseudorisk.Annotation) *Report {
	r := NewReport("Pseudonymisation risk for actor " + a.Actor)
	r.AddSection("Policy", a.Policy.Description)
	t := NewTable("at-risk state", "fields read", "violations", "violation fraction", "max risk")
	for _, rt := range a.RiskTransitions {
		t.AddRow(
			string(rt.From),
			orNone(strings.Join(rt.ReadAnonFields, ", ")),
			strconv.Itoa(rt.Result.Violations),
			fmt.Sprintf("%.0f%%", rt.Result.ViolationFraction*100),
			fmt.Sprintf("%.2f", rt.Result.MaxRisk),
		)
	}
	r.AddTable("Risk transitions", "", t)
	return r
}

// Compliance builds the report for a policy-compliance check.
func Compliance(c *policy.ComplianceReport) *Report {
	r := NewReport("Privacy-policy compliance")
	status := "COMPLIANT"
	if !c.Compliant {
		status = fmt.Sprintf("NON-COMPLIANT (%d violations)", len(c.Violations))
	}
	r.AddSection("Result", fmt.Sprintf("%s — %d transitions checked", status, c.CheckedTransitions))
	if len(c.Violations) > 0 {
		t := NewTable("service", "actor", "action", "fields", "reason")
		for _, v := range c.Violations {
			t.AddRow(v.Service, v.Actor, v.Action.String(), strings.Join(v.Fields, ", "), v.Reason)
		}
		r.AddTable("Violations", "", t)
	}
	return r
}

func orNone(s string) string {
	if s == "" {
		return "(none)"
	}
	return s
}
