package report_test

import (
	"math"
	"testing"

	"privascope/internal/core"
	"privascope/internal/risk"
)

// FuzzFindingsTable renders fuzzer-built assessments: each byte adds one
// finding, its low two bits picking one of four base findings and its next
// three bits an edit of it (none, or a rewritten explanation, mitigation,
// datastore, actor, risk or impact). Repeated bytes repeat rows, so the rows
// fall into few classes, and an edit makes a row that looks like its base in
// every cell but one. The disclosure report must equal the stored-rows
// reference in text and Markdown, rendered and written.
func FuzzFindingsTable(f *testing.F) {
	base := []risk.Finding{
		{Risk: risk.LevelHigh, Actor: "administrator", Action: core.ActionRead, Datastore: "ehr", DrivingField: "diagnosis",
			Impact: 0.9, ImpactLevel: risk.LevelHigh, Likelihood: 0.3, LikelihoodLevel: risk.LevelMedium,
			Explanation: "administrator may read diagnosis", Mitigation: "restrict administrator"},
		{Risk: risk.LevelMedium, Actor: "administrator", Action: core.ActionRead, Datastore: "ehr|backup", DrivingField: "diagnosis",
			Impact: 0.9, ImpactLevel: risk.LevelHigh, Likelihood: 0.3, LikelihoodLevel: risk.LevelMedium,
			Explanation: "administrator may read diagnosis", Mitigation: "restrict administrator"},
		{Risk: risk.LevelLow, Actor: "researcher", Action: core.ActionDisclose, DrivingField: "age",
			Impact: 0.3, ImpactLevel: risk.LevelLow, Likelihood: 0.1, LikelihoodLevel: risk.LevelLow,
			Explanation: "disclose to researcher | exposes age", Mitigation: "remove researcher"},
		{Risk: risk.LevelMedium, Actor: "researcher", Action: core.ActionDisclose, DrivingField: "age",
			Impact: 0.7, ImpactLevel: risk.LevelMedium, Likelihood: 0.5, LikelihoodLevel: risk.LevelMedium,
			Explanation: "disclose to researcher | exposes age", Mitigation: ""},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a := &risk.Assessment{Profile: risk.UserProfile{ID: "fuzzed"}, OverallRisk: risk.LevelNone}
		for _, b := range data[:min(len(data), 256)] {
			finding := base[b&3]
			switch b >> 2 & 7 {
			case 1:
				finding.Explanation += " (rewritten)"
			case 2:
				finding.Mitigation += "|rewritten"
			case 3:
				finding.Datastore = "ehr"
			case 4:
				finding.Actor = "administrator"
			case 5:
				finding.Risk = risk.LevelMedium
			case 6:
				finding.Impact = []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1)}[b>>5&3]
			}
			a.Findings = append(a.Findings, finding)
			a.OverallRisk = max(a.OverallRisk, finding.Risk)
		}
		if err := checkDisclosure(a); err != nil {
			t.Fatal(err)
		}
	})
}
