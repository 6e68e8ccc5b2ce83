package main

import (
	"context"
	"time"

	"privascope"
	"privascope/internal/core"
	"privascope/internal/dataflow"
	"privascope/internal/report"
	"privascope/internal/risk"
)

// populationWorkload is assess_population. One operation analyses 256 users
// of 32 profile shapes the process has not seen before against the
// pre-generated medium model and renders the population summary. The risk
// analyzer and its shape cache do the work; generation and the model store
// are bypassed.
//
// A unit of work is one user assessed.
type populationWorkload struct {
	model   *dataflow.Model
	p       *core.PrivacyLTS
	checker *reportChecker
}

func (w *populationWorkload) setup(e *env) error {
	doc, err := mediumDoc(e.seed, e.sizes)
	if err != nil {
		return err
	}
	if w.model, err = dataflow.Unmarshal(doc); err != nil {
		return err
	}
	if w.p, err = privascope.Generate(w.model); err != nil {
		return err
	}
	w.checker, err = newReportChecker(e.seed, e.sizes.golden)
	return err
}

func (w *populationWorkload) close() {}

func (w *populationWorkload) run(e *env, out *outcome) error {
	start := time.Now()
	var (
		lastProfiles []risk.UserProfile
		last         *risk.PopulationAssessment
	)
	for op := 0; op < 2 || time.Since(start) < e.window(); op++ {
		profiles := populationProfiles(e.seed, op, w.model)
		tr := e.tracerAt(time.Since(start))
		steal := startSteal()
		t0 := time.Now()
		root := tr.begin("population", -1, int64(op))
		id := tr.begin("risk.analyze_population", root, int64(op))
		pa, err := privascope.AnalyzeDisclosurePopulation(w.p, profiles, privascope.RiskConfig{})
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("report.build", root, int64(op))
		r := report.PopulationSummary(pa)
		tr.end(id)
		id = tr.begin("report.render", root, int64(op))
		text := r.Render()
		tr.end(id)
		tr.end(root)
		d := time.Since(t0)
		out.recordOp(tr, d, populationUsers, steal)
		tr.count("report.bytes", float64(len(text)))
		out.check(len(pa.Users) == populationUsers && pa.DistinctShapes == populationShapes, 1,
			"population of %d users in %d shapes, want %d in %d", len(pa.Users), pa.DistinctShapes, populationUsers, populationShapes)
		if op == 0 {
			// Operation 0's inputs depend on the seed alone, so its report
			// is the one a golden hash can pin; it is also checked in full.
			w.checker.check(out, "population", text)
			if err := w.checkAgainstSingles(out, profiles, pa); err != nil {
				return err
			}
		}
		lastProfiles, last = profiles, pa
	}
	out.measurementDone()
	if err := w.checkAgainstSingles(out, lastProfiles, last); err != nil {
		return err
	}
	if e.updateGolden {
		if err := w.checker.writeGolden(e.benchDir); err != nil {
			return err
		}
	}
	if e.trace == nil {
		return nil
	}
	out.layer["report.build_ms"] = median(e.trace.durationsMs("report.build"))
	out.layer["report.render_ms"] = median(e.trace.durationsMs("report.render"))
	out.layer["report.bytes"] = e.trace.counterMax("report.bytes")
	out.layer["risk.distinct_shapes"] = float64(last.DistinctShapes)
	out.layer["risk.cache_hit_share"] = 1 - float64(last.DistinctShapes)/float64(len(last.Users))
	// One analysis per shape, uncached: what a shape-cache miss costs.
	var singles, findings []float64
	for _, profile := range lastProfiles[:populationShapes] {
		t0 := time.Now()
		a, err := privascope.AnalyzeDisclosureContext(context.Background(), w.p, profile, privascope.RiskConfig{})
		if err != nil {
			return err
		}
		singles = append(singles, float64(time.Since(t0))/1e6)
		findings = append(findings, float64(len(a.Findings)))
	}
	out.layer["risk.analyze_ms.medium"] = median(singles)
	out.layer["risk.findings"] = median(findings)
	return nil
}

// checkAgainstSingles recomputes every user's entry of a population
// assessment from a separate, uncached single-profile analysis of the user's
// shape (user u has shape u mod populationShapes).
func (w *populationWorkload) checkAgainstSingles(out *outcome, profiles []risk.UserProfile, pa *risk.PopulationAssessment) error {
	singles := make([]risk.UserRisk, populationShapes)
	for s := range singles {
		a, err := privascope.AnalyzeDisclosure(w.p, profiles[s], privascope.RiskConfig{})
		if err != nil {
			return err
		}
		singles[s] = risk.UserRisk{OverallRisk: a.OverallRisk, Findings: len(a.Findings)}
		if len(a.Findings) > 0 {
			singles[s].HighestImpactField, singles[s].WorstActor = a.Findings[0].DrivingField, a.Findings[0].Actor
		}
	}
	for u, profile := range profiles {
		want := singles[u%populationShapes]
		want.UserID = profile.ID
		out.check(u < len(pa.Users) && pa.Users[u] == want, 1,
			"user %s: population entry differs from its single analysis %+v", profile.ID, want)
	}
	return nil
}
