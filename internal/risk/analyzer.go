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
// deadline passes. Each finding is written once, straight into its report
// slot.
func (a *Analyzer) AnalyzeContext(ctx context.Context, p *core.PrivacyLTS, profile UserProfile) (*Assessment, error) {
	r, err := a.rank(ctx, p, profile)
	if err != nil {
		return nil, err
	}
	if r.findings == 0 {
		return r.assessment, nil
	}
	view := r.view
	// A finding is its template plus its transition: the label of the edge
	// class (shared per declared flow; it fixes action, fields, performer,
	// store, service and potential marker) and the template (actor, driving
	// field, hence impact, and likelihood class) fix every other field. The
	// first finding of a template in report order is built, texts and all;
	// the others copy it.
	rc := newRenderCache()
	first := make([]int, len(r.tpl)) // per template: the report slot of its first finding, plus one
	findings := make([]Finding, r.findings)
	err = r.place(ctx, func(pos int, e, t int32) {
		f := &findings[pos]
		if at := first[t]; at > 0 {
			*f = findings[at-1]
			f.Transition = view.Graph.TransitionAt(e)
			return
		}
		first[t] = pos + 1
		*f = a.finding(r, e, r.tpl[t], rc)
	})
	if err != nil {
		return nil, err
	}
	r.assessment.Findings = findings
	return r.assessment, nil
}

// AlertFindings resolves, per edge class of the model's compiled view
// (core.CompiledView.Classes), the finding an observed edge of the class
// raises: the class's finding for the actor who performs it, when its risk is
// at least threshold, and nil for a class with none. A flow that merely
// exposes data to someone else is design-time knowledge, already in the
// assessment; the performer actually reading the data is a live disclosure
// event. A class has at most one such finding. Each finding's Transition is
// the class's first edge; a caller reporting another edge of the class sets
// it.
func (a *Analyzer) AlertFindings(ctx context.Context, p *core.PrivacyLTS, profile UserProfile, threshold Level) ([]*Finding, error) {
	r, err := a.rank(ctx, p, profile)
	if err != nil {
		return nil, err
	}
	rc := newRenderCache()
	classes := r.view.Classes()
	out := make([]*Finding, len(classes))
	for c := range classes {
		for _, tp := range r.tpl[r.tplOff[c]:r.tplOff[c+1]] {
			if Level(tp.risk) >= threshold && r.view.Actors()[tp.actor] == classes[c].Label.Actor {
				f := a.finding(r, classes[c].First, tp, rc)
				out[c] = &f
			}
		}
	}
	return out, nil
}

// finding builds the finding template tp yields on edge e, texts and all.
func (a *Analyzer) finding(r *ranking, e int32, tp template, rc *renderCache) Finding {
	view := r.view
	label := view.Label(e)
	likelihood, likelihoodLevel, scenarios := a.otherLikelihood, a.otherLevel, a.otherScenarios
	if tp.serviceClass {
		likelihood, likelihoodLevel, scenarios = a.serviceLikelihood, a.serviceLevel, a.serviceScenarios
	}
	f := Finding{
		Transition:      view.Graph.TransitionAt(e),
		Action:          label.Action,
		Actor:           view.Actors()[tp.actor],
		PerformedBy:     label.Actor,
		Datastore:       label.Datastore,
		Fields:          rc.fieldSet(label),
		Potential:       label.Potential,
		Service:         label.Service,
		DrivingField:    view.Fields()[tp.driving],
		Impact:          r.sens[tp.driving],
		ImpactLevel:     Level(tp.impactLevel),
		Likelihood:      likelihood,
		LikelihoodLevel: likelihoodLevel,
		Scenarios:       scenarios,
		Risk:            Level(tp.risk),
	}
	f.Explanation, f.Mitigation = a.explain(&f, rc), a.suggestMitigation(&f, rc)
	return f
}

// template is the finding every edge of one edge class yields for one
// non-allowed actor, less the edge: all of a finding that is not a function
// of the class's label (the impact is the driving field's σ).
type template struct {
	actor, driving    int32
	risk, impactLevel uint8
	serviceClass      bool
}

// ranking is one profile's resolution of a model's edge classes: the
// assessment without its Findings, and each class's finding templates. Every
// edge of a class yields the class's templates, in actor order. Report order
// is (bucket, actor, edge).
type ranking struct {
	assessment *Assessment
	view       *core.CompiledView
	sens       []float64  // σ per vocabulary field
	impactRank []int32    // per vocabulary field: 0 for the highest σ; equal σ share a rank
	tpl        []template // every class's templates, class by class
	tplOff     []int32    // class c's are tpl[tplOff[c]:tplOff[c+1]]
	findings   int        // Σ edges of a class × its templates
}

// rank validates the profile and resolves each of the model's edge classes
// once: labels and newly-set variables are resolved to dense actor/field
// indices once per model, σ and the allowed set to index-addressed tables
// once per call, so the per-class work is array arithmetic with no map
// lookup, no rendering and no allocation beyond the template table, and no
// edge is visited.
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
	// vocabulary actor, so σ(d, a) inside the class loop is two array loads.
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

	classes := view.Classes()
	numChanges := 0
	for c := range classes {
		numChanges += len(classes[c].Changes)
	}
	r := &ranking{assessment: assessment, view: view, sens: sens, impactRank: impactRank,
		tpl:    make([]template, 0, numChanges), // a template takes at least one change
		tplOff: make([]int32, len(classes)+1)}
	for c := range classes {
		// Poll between classes: at worst every edge is a class of its own.
		if c&255 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		class := &classes[c]
		consented := class.Label.Service != "" && consentedSet[class.Label.Service]
		// Changes are actor-major, so each run of one actor is that actor's
		// exposure. Impact: the maximum sensitivity among the state variables
		// the class newly sets for a non-allowed actor, σ(d, a) being zero
		// for allowed ones. The change is measured relative to the source
		// state; because variables only accumulate along paths from the
		// absolute privacy state, this equals the paper's "change relative to
		// the absolute privacy state" for the variables a transition
		// introduces.
		chg := class.Changes
		for i := 0; i < len(chg); {
			actor := chg[i].Actor
			// identified: the class sets a "has identified" variable for the
			// actor, who receives the data rather than merely becoming able to
			// read it later.
			impact, driving, identified := 0.0, int32(-1), false
			for ; i < len(chg) && chg[i].Actor == actor; i++ {
				if s := sens[chg[i].Field]; s > 0 && !allowedIdx[actor] {
					if s > impact {
						impact, driving = s, chg[i].Field
					}
					identified = identified || chg[i].Kind == core.HasIdentified
				}
			}
			if driving < 0 {
				continue
			}
			// Likelihood: which scenarios can make the disclosure to this
			// actor happen? Declared flows of non-consented services that
			// actually hand the data over fall under the service-level
			// scenarios; potential reads and mere exposure fall under the
			// remaining scenarios (accidental access, maintenance exposure).
			serviceClass := !class.Label.Potential && identified && !consented
			likelihoodLevel := a.otherLevel
			if serviceClass {
				likelihoodLevel = a.serviceLevel
			}
			impactLevel := a.cfg.Matrix.ImpactLevel(impact)
			riskLevel := a.cfg.Matrix.Risk(impactLevel, likelihoodLevel)
			r.tpl = append(r.tpl, template{actor: actor, driving: driving,
				risk: uint8(riskLevel), impactLevel: uint8(impactLevel), serviceClass: serviceClass})
			assessment.OverallRisk = max(assessment.OverallRisk, riskLevel)
		}
		r.tplOff[c+1] = int32(len(r.tpl))
		r.findings += int(class.Count) * int(r.tplOff[c+1]-r.tplOff[c])
	}
	return r, nil
}

// bucket is the major part of a finding's report-order key, in [0,
// 4·|fields|): risk descending, then impact descending. Within a bucket
// actors ascend (index order is name order), then edges.
func (r *ranking) bucket(t template) int {
	return int(LevelHigh-Level(t.risk))*len(r.sens) + int(r.impactRank[t.driving])
}

// place hands every finding to put as its edge and template index, with its
// position in report order: one stable counting sort of the edges, keyed by
// the dense rank of each template's (bucket, actor) pair, whose counts come
// from the classes. Edges are walked ascending, so they stay ascending within
// a key. ctx is polled every 256 edges.
func (r *ranking) place(ctx context.Context, put func(pos int, e, t int32)) error {
	numActors := len(r.view.Actors())
	key := make([]int, len(r.tpl))
	for t, tp := range r.tpl {
		key[t] = r.bucket(tp)*numActors + int(tp.actor)
	}
	pairs := slices.Clone(key)
	slices.Sort(pairs)
	pairs = slices.Compact(pairs)
	for t := range key {
		key[t], _ = slices.BinarySearch(pairs, key[t])
	}
	next := make([]int, len(pairs)+1)
	classes := r.view.Classes()
	for c := range classes {
		for t := r.tplOff[c]; t < r.tplOff[c+1]; t++ {
			next[key[t]+1] += int(classes[c].Count)
		}
	}
	for k := 1; k < len(next); k++ {
		next[k] += next[k-1]
	}
	for e := range int32(r.view.Graph.TransitionCount()) {
		// Poll between transitions, spaced out so the atomic load never
		// shows up on profiles of small models.
		if e&255 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		c := r.view.Class(e)
		if c < 0 {
			continue
		}
		for t := r.tplOff[c]; t < r.tplOff[c+1]; t++ {
			put(next[key[t]], e, t)
			next[key[t]]++
		}
	}
	return nil
}

// summary is the profile's population entry, all but its UserID, read off
// the templates. The first finding in report order has the smallest (bucket,
// actor) and, of those, the earliest edge: the first edge of the earliest
// class, since classes are in order of their first edge.
func (r *ranking) summary() UserRisk {
	entry := UserRisk{OverallRisk: r.assessment.OverallRisk, Findings: r.findings}
	top, topBucket := -1, 0
	for t, tp := range r.tpl {
		if b := r.bucket(tp); top < 0 || b < topBucket || b == topBucket && tp.actor < r.tpl[top].actor {
			top, topBucket = t, b
		}
	}
	if top >= 0 {
		entry.HighestImpactField, entry.WorstActor = r.view.Fields()[r.tpl[top].driving], r.view.Actors()[r.tpl[top].actor]
	}
	return entry
}

// renderCache memoises the report-path conversions of one analysis: label
// field sets (shared by every finding of a label), quoted identifiers (every
// finding quotes actor, store and field names drawn from the same vocabulary)
// and fixed-point floats (impacts come from the profile's sensitivity set,
// likelihoods from the analyzer's two scenario aggregates), so each distinct
// value is converted exactly once per Analyze call.
type renderCache struct {
	fieldSets map[*core.TransitionLabel][]string
	quoted    map[string]string
	fixed     map[float64]string
}

func newRenderCache() *renderCache {
	return &renderCache{fieldSets: make(map[*core.TransitionLabel][]string),
		quoted: make(map[string]string), fixed: make(map[float64]string)}
}

// fieldSet returns label.FieldSet(), memoised.
func (r *renderCache) fieldSet(label *core.TransitionLabel) []string {
	fs, ok := r.fieldSets[label]
	if !ok {
		fs = label.FieldSet()
		r.fieldSets[label] = fs
	}
	return fs
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
