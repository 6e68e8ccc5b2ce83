package risk

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"privascope/internal/core"
	"privascope/internal/lts"
)

// Finding is one assessed disclosure event: a transition of the privacy LTS
// through which a non-allowed actor identifies (or becomes able to identify)
// personal data the user is sensitive about.
type Finding struct {
	// Transition is the LTS transition the finding refers to.
	Transition lts.Transition
	// Action, Datastore and Fields are copied from the transition label for
	// convenience.
	Action    core.Action
	Datastore string
	Fields    []string
	// Actor is the non-allowed actor put in a position to identify (or who
	// identifies) the sensitive data. The paper attaches the risk to the
	// disclosure event affecting this actor.
	Actor string
	// PerformedBy is the actor performing the transition; for potential
	// reads it equals Actor, for declared flows it may be an allowed actor
	// whose action exposes data to Actor (for example a doctor writing the
	// diagnosis into a store the administrator may read).
	PerformedBy string
	// Potential marks findings on policy-permitted reads that no declared
	// flow performs.
	Potential bool
	// Service is the (non-consented) service the transition belongs to, if
	// any.
	Service string
	// DrivingField is the field whose sensitivity determines the impact.
	DrivingField string
	// Impact is the maximum sensitivity change the transition causes.
	Impact      float64
	ImpactLevel Level
	// Likelihood is the summed probability of the scenarios under which the
	// event occurs; zero for events within consented services.
	Likelihood      float64
	LikelihoodLevel Level
	// Scenarios lists the scenario names contributing to the likelihood.
	// The slice is shared across findings with the same likelihood class
	// (like the Findings of a cached Assessment, it must be treated as
	// immutable).
	Scenarios []string
	// Risk is the combined risk level from the matrix.
	Risk Level
	// Explanation is a human-readable account of the finding.
	Explanation string
	// Mitigation is a suggested change that would remove or reduce the risk.
	Mitigation string
}

// Assessment is the result of analysing one user profile against a privacy
// LTS.
type Assessment struct {
	// Profile is the analysed user profile.
	Profile UserProfile
	// AllowedActors took part in at least one consented service.
	AllowedActors []string
	// NonAllowedActors are every other actor of the model.
	NonAllowedActors []string
	// Findings are the assessed disclosure events, sorted by decreasing risk
	// then impact.
	Findings []Finding
	// OverallRisk is the maximum risk across findings (LevelNone if there
	// are none).
	OverallRisk Level
}

// FindingsAtLeast returns the findings whose risk is at least the given
// level.
func (a *Assessment) FindingsAtLeast(level Level) []Finding {
	var out []Finding
	for _, f := range a.Findings {
		if f.Risk >= level {
			out = append(out, f)
		}
	}
	return out
}

// MaxRiskFor returns the highest risk among findings involving the actor.
func (a *Assessment) MaxRiskFor(actor string) Level {
	max := LevelNone
	for i := range a.Findings {
		if f := &a.Findings[i]; f.Actor == actor && f.Risk > max {
			max = f.Risk
		}
	}
	return max
}

// Analyzer performs unwanted-disclosure risk analysis. It never mutates the
// privacy LTS it analyses, so one generated model can be assessed against
// many user profiles.
type Analyzer struct {
	cfg Config

	// Scenario aggregates, precomputed at construction: the summed
	// probability, its bucketed level and the contributing names of the
	// service-level scenarios (for declared flows of non-consented services)
	// and of the remaining scenarios (for potential reads and mere exposure).
	// The name slices are shared read-only across every finding they apply to.
	serviceLikelihood float64
	serviceLevel      Level
	serviceScenarios  []string
	otherLikelihood   float64
	otherLevel        Level
	otherScenarios    []string
}

// NewAnalyzer returns an analyzer with the given configuration; zero-value
// fields select the defaults.
func NewAnalyzer(cfg Config) (*Analyzer, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Matrix.Validate(); err != nil {
		return nil, err
	}
	// Written to reject NaN as well: a NaN probability would poison the
	// precomputed likelihood aggregates below.
	for _, s := range cfg.Scenarios {
		if !(s.Probability >= 0 && s.Probability <= 1) {
			return nil, fmt.Errorf("risk: scenario %q probability %v outside [0,1]", s.Name, s.Probability)
		}
	}
	a := &Analyzer{cfg: cfg}
	for _, s := range cfg.Scenarios {
		if s.AppliesToService {
			a.serviceLikelihood += s.Probability
			a.serviceScenarios = append(a.serviceScenarios, s.Name)
		} else {
			a.otherLikelihood += s.Probability
			a.otherScenarios = append(a.otherScenarios, s.Name)
		}
	}
	a.serviceLikelihood, a.otherLikelihood = min(a.serviceLikelihood, 1), min(a.otherLikelihood, 1)
	a.serviceLevel = cfg.Matrix.LikelihoodLevel(a.serviceLikelihood)
	a.otherLevel = cfg.Matrix.LikelihoodLevel(a.otherLikelihood)
	return a, nil
}

// AnalyzeContext assesses the user profile against the privacy LTS. ctx is
// polled while walking the model's transitions, so analyses of very large
// models abort promptly with ctx.Err() when the caller cancels or the
// deadline passes. Each finding of the walk (rank) is written once, straight
// into its report slot.
func (a *Analyzer) AnalyzeContext(ctx context.Context, p *core.PrivacyLTS, profile UserProfile) (*Assessment, error) {
	r, err := a.rank(ctx, p, profile)
	if err != nil {
		return nil, err
	}
	if len(r.pend) == 0 {
		return r.assessment, nil
	}
	view := r.view
	// A finding is its class plus its transition: the label (shared per
	// declared flow; it fixes action, fields, performer, store, service and
	// potential marker), the actor, the driving field (hence the impact) and
	// the likelihood class fix every other field. The first finding of a class
	// in report order is built, texts and all; the others copy it.
	rc := newRenderCache()
	fieldSets := make(map[*core.TransitionLabel][]string)
	type class struct {
		label          *core.TransitionLabel
		actor, driving int32
		serviceClass   bool
	}
	first := make(map[class]int) // the report slot of the class's first finding
	findings := make([]Finding, len(r.pend))
	r.place(func(pos int, pe pending) {
		label := view.Label(pe.edge)
		f := &findings[pos]
		key := class{label: label, actor: pe.actor, driving: pe.driving, serviceClass: pe.serviceClass}
		if at, ok := first[key]; ok {
			*f = findings[at]
			f.Transition = view.Graph.TransitionAt(pe.edge)
			return
		}
		first[key] = pos
		fieldSet, ok := fieldSets[label]
		if !ok {
			fieldSet = label.FieldSet()
			fieldSets[label] = fieldSet
		}
		likelihood, likelihoodLevel, scenarios := a.otherLikelihood, a.otherLevel, a.otherScenarios
		if pe.serviceClass {
			likelihood, likelihoodLevel, scenarios = a.serviceLikelihood, a.serviceLevel, a.serviceScenarios
		}
		*f = Finding{
			Transition:      view.Graph.TransitionAt(pe.edge),
			Action:          label.Action,
			Actor:           view.Actors()[pe.actor],
			PerformedBy:     label.Actor,
			Datastore:       label.Datastore,
			Fields:          fieldSet,
			Potential:       label.Potential,
			Service:         label.Service,
			DrivingField:    view.Fields()[pe.driving],
			Impact:          r.sens[pe.driving],
			ImpactLevel:     Level(pe.impactLevel),
			Likelihood:      likelihood,
			LikelihoodLevel: likelihoodLevel,
			Scenarios:       scenarios,
			Risk:            Level(pe.risk),
		}
		f.Explanation, f.Mitigation = a.explain(f, rc), a.suggestMitigation(f, rc)
	})
	r.assessment.Findings = findings
	return r.assessment, nil
}

// pending is one finding as the walk records it: all of it that is not a
// function of the edge's label (the impact is the driving field's σ), in 16
// pointer-free bytes the collector never scans.
type pending struct {
	edge, actor, driving int32
	risk, impactLevel    uint8
	serviceClass         bool
}

// ranking is one profile's walk over a model: the assessment without its
// Findings, and the findings as pending entries in walk order (edge
// ascending, then actor). Report order is (bucket, actor, edge).
type ranking struct {
	assessment *Assessment
	view       *core.CompiledView
	sens       []float64 // σ per vocabulary field
	impactRank []int32   // per vocabulary field: 0 for the highest σ; equal σ share a rank
	pend       []pending
}

// rank validates the profile and walks the model's compiled view once:
// labels and newly-set variables are resolved to dense actor/field indices
// once per model, σ and the allowed set to index-addressed tables once per
// call, so the per-transition work is array arithmetic with no map lookup,
// no rendering and no allocation beyond the pending slice.
func (a *Analyzer) rank(ctx context.Context, p *core.PrivacyLTS, profile UserProfile) (*ranking, error) {
	if p == nil {
		return nil, errors.New("risk: privacy LTS must not be nil")
	}
	if err := profile.Validate(); err != nil {
		return nil, err
	}
	for _, svc := range profile.ConsentedServices {
		if _, ok := p.Model.Service(svc); !ok {
			return nil, fmt.Errorf("risk: profile consents to unknown service %q", svc)
		}
	}

	allowed := p.Model.ServiceActors(profile.ConsentedServices...)
	allowedSet := make(map[string]bool, len(allowed))
	for _, actor := range allowed {
		allowedSet[actor] = true
	}
	var nonAllowed []string
	for _, actor := range p.Model.ActorIDs() {
		if !allowedSet[actor] {
			nonAllowed = append(nonAllowed, actor)
		}
	}
	sort.Strings(nonAllowed)

	assessment := &Assessment{
		Profile:          profile,
		AllowedActors:    allowed,
		NonAllowedActors: nonAllowed,
		OverallRisk:      LevelNone,
	}

	view := p.Compiled()
	actors := view.Actors()
	fields := view.Fields()

	// Per-call index tables: σ(d) per vocabulary field and "is allowed" per
	// vocabulary actor, so σ(d, a) inside the edge loop is two array loads.
	allowedIdx := make([]bool, len(actors))
	for i, name := range actors {
		allowedIdx[i] = allowedSet[name]
	}
	sens := make([]float64, len(fields))
	for i, f := range fields {
		sens[i] = profile.Sensitivity(f)
	}
	consentedSet := make(map[string]bool, len(profile.ConsentedServices))
	for _, svc := range profile.ConsentedServices {
		consentedSet[svc] = true
	}
	// A finding's impact is its driving field's σ, so ranking the distinct σ
	// values orders impacts and keeps equal impacts tied.
	distinct := slices.Clone(sens)
	slices.Sort(distinct)
	distinct = slices.Compact(distinct)
	impactRank := make([]int32, len(fields))
	for i, s := range sens {
		j, _ := slices.BinarySearch(distinct, s)
		impactRank[i] = int32(len(distinct) - 1 - j)
	}

	// Per-actor exposure scratch, reused across every transition via epoch
	// stamping (no clearing, no per-transition map). Slots are only ever
	// stamped with a positive impact, and ascending actor index equals
	// ascending actor name, so iterating the slots in order reproduces the
	// sorted-actor finding order of the per-transition assessment.
	type exposure struct {
		impact  float64
		driving int32 // the field whose σ is the impact
		// identified: the transition sets a "has identified" variable for the
		// actor, who receives the data rather than merely becoming able to
		// read it later.
		identified bool
		stamp      uint32
	}
	slots := make([]exposure, len(actors))
	epoch := uint32(0)

	numEdges := view.Graph.TransitionCount()
	pend := make([]pending, 0, numEdges) // models yield about one finding an edge
	for e := 0; e < numEdges; e++ {
		// Poll between transitions, spaced out so the atomic load never
		// shows up on profiles of small models.
		if e&255 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		label := view.Label(int32(e))
		if label == nil {
			continue
		}

		// Impact per non-allowed actor: the maximum sensitivity among the
		// state variables the transition newly sets for that actor, measured
		// with σ(d, a) so variables of allowed actors contribute nothing. The
		// change is measured relative to the source state; because variables
		// only accumulate along paths from the absolute privacy state, this
		// equals the paper's "change relative to the absolute privacy state"
		// for the variables this transition introduces.
		epoch++
		exposed := false
		for _, chg := range view.Changes(int32(e)) {
			if allowedIdx[chg.Actor] {
				continue
			}
			s := sens[chg.Field]
			if s <= 0 {
				continue
			}
			slot := &slots[chg.Actor]
			if slot.stamp != epoch {
				*slot = exposure{stamp: epoch}
			}
			if s > slot.impact {
				slot.impact = s
				slot.driving = chg.Field
			}
			if chg.Kind == core.HasIdentified {
				slot.identified = true
			}
			exposed = true
		}
		if !exposed {
			continue
		}

		// Likelihood: which scenarios can make the disclosure to this actor
		// happen? Declared flows of non-consented services that actually hand
		// the data over fall under the service-level scenarios; potential
		// reads and mere exposure fall under the remaining scenarios
		// (accidental access, maintenance exposure).
		consented := label.Service != "" && consentedSet[label.Service]
		for ai := range slots {
			slot := &slots[ai]
			if slot.stamp != epoch {
				continue
			}
			serviceClass := !label.Potential && slot.identified && !consented
			likelihoodLevel := a.otherLevel
			if serviceClass {
				likelihoodLevel = a.serviceLevel
			}
			impactLevel := a.cfg.Matrix.ImpactLevel(slot.impact)
			riskLevel := a.cfg.Matrix.Risk(impactLevel, likelihoodLevel)
			pend = append(pend, pending{edge: int32(e), actor: int32(ai), driving: slot.driving,
				risk: uint8(riskLevel), impactLevel: uint8(impactLevel), serviceClass: serviceClass})
			assessment.OverallRisk = max(assessment.OverallRisk, riskLevel)
		}
	}
	return &ranking{assessment: assessment, view: view, sens: sens, impactRank: impactRank, pend: pend}, nil
}

// bucket is the major part of a finding's report-order key, in [0,
// 4·|fields|): risk descending, then impact descending. Within a bucket
// actors ascend (index order is name order), then edges.
func (r *ranking) bucket(pe pending) int {
	return int(LevelHigh-Level(pe.risk))*len(r.sens) + int(r.impactRank[pe.driving])
}

// place hands every pending finding to put with its position in report
// order: a stable counting sort by actor, then one by bucket, so its scratch
// is one copy of the findings plus a counter per actor and per bucket. The
// walk emitted edges ascending, so they stay ascending within a key.
func (r *ranking) place(put func(pos int, pe pending)) {
	byActor := make([]pending, len(r.pend))
	countingSort(r.pend, len(r.view.Actors()), func(pe pending) int { return int(pe.actor) },
		func(pos int, pe pending) { byActor[pos] = pe })
	countingSort(byActor, 4*len(r.sens), r.bucket, put)
}

// countingSort hands each entry of pend to put with its position in a
// stable sort of pend by key, which lies in [0, n).
func countingSort(pend []pending, n int, key func(pending) int, put func(pos int, pe pending)) {
	next := make([]int, n+1)
	for _, pe := range pend {
		next[key(pe)+1]++
	}
	for k := 1; k <= n; k++ {
		next[k] += next[k-1]
	}
	for _, pe := range pend {
		k := key(pe)
		put(next[k], pe)
		next[k]++
	}
}

// summary is the profile's population entry, all but its UserID. The first
// finding in report order has the smallest (bucket, actor) and, of those, the
// earliest edge, which the walk emitted first.
func (r *ranking) summary() UserRisk {
	entry := UserRisk{OverallRisk: r.assessment.OverallRisk, Findings: len(r.pend)}
	top, topBucket := -1, 0
	for i, pe := range r.pend {
		if b := r.bucket(pe); top < 0 || b < topBucket || b == topBucket && pe.actor < r.pend[top].actor {
			top, topBucket = i, b
		}
	}
	if top >= 0 {
		entry.HighestImpactField, entry.WorstActor = r.view.Fields()[r.pend[top].driving], r.view.Actors()[r.pend[top].actor]
	}
	return entry
}

// renderCache memoises the report-path string conversions of one analysis:
// quoted identifiers (every finding quotes actor, store and field names drawn
// from the same vocabulary) and fixed-point floats (impacts come from the
// profile's sensitivity set, likelihoods from the analyzer's two scenario
// aggregates), so each distinct value goes through strconv exactly once per
// Analyze call.
type renderCache struct {
	quoted map[string]string
	fixed  map[float64]string
}

func newRenderCache() *renderCache {
	return &renderCache{quoted: make(map[string]string), fixed: make(map[float64]string)}
}

// quote returns strconv.Quote(s), memoised.
func (r *renderCache) quote(s string) string {
	q, ok := r.quoted[s]
	if !ok {
		q = strconv.Quote(s)
		r.quoted[s] = q
	}
	return q
}

// fixed2 returns the "%.2f" rendering of v, memoised.
func (r *renderCache) fixed2(v float64) string {
	s, ok := r.fixed[v]
	if !ok {
		s = strconv.FormatFloat(v, 'f', 2, 64)
		r.fixed[v] = s
	}
	return s
}

// explain renders the finding's explanation. It runs once per finding class
// of every analysis and writes directly into one pre-sized strings.Builder
// through the render cache instead of going through fmt; the output is
// byte-identical to the earlier fmt-based rendering, which the
// reference-equivalence tests pin down.
func (a *Analyzer) explain(f *Finding, rc *renderCache) string {
	var b strings.Builder
	size := 160 + len(f.Actor) + len(f.PerformedBy) + len(f.Service) + len(f.Datastore) + len(f.DrivingField)
	for _, field := range f.Fields {
		size += len(field) + len(", ")
	}
	b.Grow(size)
	writeQuoted := func(s string) { b.WriteString(rc.quote(s)) }
	writeFixed2 := func(v float64) { b.WriteString(rc.fixed2(v)) }
	writeFields := func() {
		for i, field := range f.Fields {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(field)
		}
	}
	switch {
	case f.Potential:
		b.WriteString("non-allowed actor ")
		writeQuoted(f.Actor)
		b.WriteString(" may ")
		b.WriteString(f.Action.String())
		b.WriteString(" ")
		writeFields()
		b.WriteString(" from datastore ")
		writeQuoted(f.Datastore)
		b.WriteString(" although no declared flow requires it")
	case f.Actor == f.PerformedBy && f.Service != "":
		b.WriteString("flow of non-consented service ")
		writeQuoted(f.Service)
		b.WriteString(" lets actor ")
		writeQuoted(f.Actor)
		b.WriteString(" ")
		b.WriteString(f.Action.String())
		b.WriteString(" ")
		writeFields()
	case f.Service != "":
		b.WriteString(f.Action.String())
		b.WriteString(" by ")
		writeQuoted(f.PerformedBy)
		b.WriteString(" in service ")
		writeQuoted(f.Service)
		b.WriteString(" exposes ")
		writeFields()
		b.WriteString(" to non-allowed actor ")
		writeQuoted(f.Actor)
	default:
		b.WriteString(f.Action.String())
		b.WriteString(" by ")
		writeQuoted(f.PerformedBy)
		b.WriteString(" exposes ")
		writeFields()
		b.WriteString(" to non-allowed actor ")
		writeQuoted(f.Actor)
	}
	b.WriteString("; most sensitive field ")
	writeQuoted(f.DrivingField)
	b.WriteString(" (impact ")
	writeFixed2(f.Impact)
	b.WriteString("/")
	b.WriteString(f.ImpactLevel.String())
	b.WriteString(", likelihood ")
	writeFixed2(f.Likelihood)
	b.WriteString("/")
	b.WriteString(f.LikelihoodLevel.String())
	b.WriteString(") => risk ")
	b.WriteString(f.Risk.String())
	return b.String()
}

// suggestMitigation renders the finding's mitigation advice, built like
// explain with direct writes and byte-identical to the earlier fmt-based
// rendering. Findings only ever name non-allowed actors (σ is zero for
// allowed ones), so no allowed-actor branch is needed here.
func (a *Analyzer) suggestMitigation(f *Finding, rc *renderCache) string {
	var b strings.Builder
	writeQuoted := func(s string) { b.WriteString(rc.quote(s)) }
	switch {
	case f.Datastore != "":
		b.Grow(112 + len(f.Actor) + len(f.Datastore) + len(f.DrivingField))
		b.WriteString("remove or restrict ")
		writeQuoted(f.Actor)
		b.WriteString("'s read access to ")
		b.WriteString(f.Datastore)
		b.WriteString(".")
		b.WriteString(f.DrivingField)
		b.WriteString(" (e.g. accesscontrol.ACL.Restrict), or pseudonymise the field before storage")
	default:
		b.Grow(72 + len(f.Actor))
		b.WriteString("remove actor ")
		writeQuoted(f.Actor)
		b.WriteString(" from the service or reduce the fields disclosed to it")
	}
	return b.String()
}

// Change describes how the assessed risk for one (actor, datastore, field)
// disclosure event moved between two assessments, e.g. before and after an
// access-policy change (case study IV-A).
type Change struct {
	Actor     string
	Datastore string
	Field     string
	Before    Level
	After     Level
}

// String renders the change, e.g.
// "administrator on ehr.diagnosis: medium -> low".
func (c Change) String() string {
	return fmt.Sprintf("%s on %s.%s: %s -> %s", c.Actor, c.Datastore, c.Field, c.Before, c.After)
}

// Compare reports, per (actor, datastore, driving field), the highest risk
// level before and after, for the events present in either assessment.
func Compare(before, after *Assessment) []Change {
	type key struct{ actor, store, field string }
	maxOf := func(a *Assessment) map[key]Level {
		m := make(map[key]Level)
		if a == nil {
			return m
		}
		for _, f := range a.Findings {
			k := key{f.Actor, f.Datastore, f.DrivingField}
			if f.Risk > m[k] {
				m[k] = f.Risk
			}
		}
		return m
	}
	b := maxOf(before)
	aft := maxOf(after)
	keys := make(map[key]bool)
	for k := range b {
		keys[k] = true
	}
	for k := range aft {
		keys[k] = true
	}
	var out []Change
	for k := range keys {
		beforeLevel, afterLevel := b[k], aft[k]
		if beforeLevel == 0 {
			beforeLevel = LevelNone
		}
		if afterLevel == 0 {
			afterLevel = LevelNone
		}
		out = append(out, Change{Actor: k.actor, Datastore: k.store, Field: k.field,
			Before: beforeLevel, After: afterLevel})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Actor != out[j].Actor {
			return out[i].Actor < out[j].Actor
		}
		if out[i].Datastore != out[j].Datastore {
			return out[i].Datastore < out[j].Datastore
		}
		return out[i].Field < out[j].Field
	})
	return out
}
