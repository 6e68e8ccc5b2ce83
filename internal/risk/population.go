package risk

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"privascope/internal/core"
)

// The risk analysis "takes the user privacy control requirements and
// annotates the model with their risk; hence there is an instance for each
// user. The process can be executed with running users of the system, or
// with simulated users in the development phase." (Section III). This file
// provides the per-population aggregation used at design time: every profile
// is assessed against one generated model and the results are summarised.

// UserRisk is the per-user entry of a population analysis.
type UserRisk struct {
	// UserID identifies the profile.
	UserID string
	// OverallRisk is the user's maximum finding risk.
	OverallRisk Level
	// Findings is the number of findings for the user.
	Findings int
	// HighestImpactField is the field driving the user's highest-risk
	// finding, if any.
	HighestImpactField string
	// WorstActor is the non-allowed actor responsible for the user's
	// highest-risk finding, if any.
	WorstActor string
}

// PopulationAssessment aggregates the assessments of many user profiles
// against one privacy model.
type PopulationAssessment struct {
	// Users holds one entry per analysed profile, in input order.
	Users []UserRisk
	// Distribution counts users per overall risk level.
	Distribution map[Level]int
	// UsersAtRisk is the number of users whose overall risk is at least
	// medium.
	UsersAtRisk int
	// WorstActors counts, per actor, how many users' highest-risk finding it
	// is responsible for. It points designers at the access rights whose
	// mitigation pays off most.
	WorstActors map[string]int
	// DistinctShapes is the number of distinct profile shapes (Shapes) in
	// the population: each was analysed once, and every other user shared its
	// entry.
	DistinctShapes int
}

// WorstActorsRanked returns the actors of WorstActors ordered by how many
// users they put at risk, ties broken alphabetically.
func (p *PopulationAssessment) WorstActorsRanked() []string {
	actors := make([]string, 0, len(p.WorstActors))
	for actor := range p.WorstActors {
		actors = append(actors, actor)
	}
	sort.Slice(actors, func(i, j int) bool {
		if p.WorstActors[actors[i]] != p.WorstActors[actors[j]] {
			return p.WorstActors[actors[i]] > p.WorstActors[actors[j]]
		}
		return actors[i] < actors[j]
	})
	return actors
}

// AnalyzePopulationContext assesses every profile against the privacy model
// and aggregates the results. Profiles are analysed independently; an error in
// any profile aborts the analysis so partial results are never mistaken for
// complete ones.
//
// Real populations hold millions of users but few distinct privacy-control
// shapes (Shapes), so the model is walked once per shape and same-shaped
// users share its entry, read straight off the ranked walk:
// the count, the overall risk and the first finding in report order. A scan
// builds no Finding and renders no text; the aggregation is O(users). ctx is
// polled between profiles (and inside each underlying walk), so a cancelled
// context aborts the scan promptly with ctx.Err().
func (a *Analyzer) AnalyzePopulationContext(ctx context.Context, p *core.PrivacyLTS, profiles []UserProfile) (*PopulationAssessment, error) {
	if p == nil {
		return nil, errors.New("risk: privacy LTS must not be nil")
	}
	if len(profiles) == 0 {
		return nil, errors.New("risk: population is empty")
	}
	out := &PopulationAssessment{
		Users:        make([]UserRisk, 0, len(profiles)),
		Distribution: make(map[Level]int),
		WorstActors:  make(map[string]int),
	}
	var shapes Shapes
	var entries []UserRisk // per shape id
	for i, profile := range profiles {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		_, id, err := shapes.Intern(profile)
		if err == nil && int(id) == len(entries) { // a shape's first user
			var r *ranking
			if r, err = a.rank(ctx, p, profile); err == nil {
				entries = append(entries, r.summary())
			}
		}
		if err != nil {
			return nil, fmt.Errorf("risk: analysing profile %d (%s): %w", i, profile.ID, err)
		}
		entry := entries[id]
		entry.UserID = profile.ID
		if entry.Findings > 0 {
			out.WorstActors[entry.WorstActor]++
		}
		out.Users = append(out.Users, entry)
		out.Distribution[entry.OverallRisk]++
		if entry.OverallRisk >= LevelMedium {
			out.UsersAtRisk++
		}
	}
	out.DistinctShapes = len(entries)
	return out, nil
}
