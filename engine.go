package privascope

import (
	"context"
	"fmt"
	"sync/atomic"

	"privascope/internal/core"
	"privascope/internal/dataflow"
	"privascope/internal/explore"
	"privascope/internal/flight"
	"privascope/internal/modelstore"
	"privascope/internal/risk"
)

// EngineOptions configures a long-lived Engine. The zero value selects the
// defaults everywhere.
type EngineOptions struct {
	// Generate configures LTS generation for every model the engine builds;
	// zero value for defaults (sequential flow ordering, terminal potential
	// reads, one exploration worker per CPU).
	Generate GenerateOptions
	// Risk configures the engine's shared disclosure-risk analyzer; zero
	// value for defaults.
	Risk RiskConfig
	// CacheDir, when non-empty, names a registry directory of persisted
	// compiled models (created if needed) that backs the in-memory model
	// cache as a second tier: a fingerprint miss first tries to load the
	// compiled artifact from disk — skipping state-space generation entirely
	// — and every generated model is written back atomically, so concurrent
	// engines and future processes share it. Corrupt or stale artifacts are
	// detected (checksummed, fingerprint-verified) and regenerated.
	CacheDir string
	// Incremental makes the engine keep the exploration trace of its most
	// recent generation and regenerate the next model incrementally from it
	// (core.Generator.RegenerateContext): when the new model differs from the
	// previous one only in metadata or access policy, exploration replays the
	// stored trace and recomputes just the affected potential reads; any
	// structural change falls back to a full generation. The result is
	// byte-identical to a cold generation either way. Intended for
	// edit-analyse loops where consecutive models are near-identical
	// (policy tuning, what-if analysis).
	Incremental bool
}

// Engine is a long-lived, concurrency-safe analysis session: the
// generate-once/analyse-many entry point the paper's workflow implies (one
// privacy LTS per system model, then disclosure, population and monitoring
// analyses per user and per dataset against it).
//
// The engine caches generated privacy models by ModelFingerprint — a
// canonical content hash, so two loads of the same model document share one
// generation — and shares one RiskConfig-derived analyzer and assessment
// cache across all calls, so same-shaped user profiles are analysed once per
// model. Each cached model carries its lazily-built compiled analysis view
// (the flat CSR graph with pre-resolved labels and state-vector deltas), so a
// model is compiled once per fingerprint and every Assess, Analyze,
// AssessPopulation and Monitor call walks the same compiled core. Both caches are single-flighted: concurrent first requests for the
// same model block on a single generation instead of duplicating it, a
// waiter honours its own context, and a generation aborted by cancellation
// is forgotten rather than cached.
//
// Models handed to an Engine must not be mutated afterwards: the cached
// privacy LTS retains the model, and the fingerprint is computed from its
// content at call time.
//
// Use one Engine per RiskConfig/GenerateOptions combination; construction is
// cheap and engines are independent.
type Engine struct {
	opts        EngineOptions
	analyzer    *risk.Analyzer
	assessments *risk.AssessmentCache
	models      flight.Group[string, *core.PrivacyLTS]
	store       *modelstore.Store
	generator   *core.Generator
	lastGen     atomic.Pointer[lastGeneration]
	generations atomic.Int64
	loads       atomic.Int64
	incremental atomic.Int64
}

// lastGeneration is the replay seed kept by an incremental engine: the most
// recently generated model together with its exploration trace.
type lastGeneration struct {
	p     *core.PrivacyLTS
	trace *explore.Result
}

// NewEngine builds an engine, validating the risk configuration up front and
// opening the persistent model registry when EngineOptions.CacheDir is set.
func NewEngine(opts EngineOptions) (*Engine, error) {
	analyzer, err := risk.NewAnalyzer(opts.Risk)
	if err != nil {
		return nil, err
	}
	cache, err := risk.NewAssessmentCache(analyzer)
	if err != nil {
		return nil, err
	}
	e := &Engine{opts: opts, analyzer: analyzer, assessments: cache,
		generator: core.NewGenerator(opts.Generate)}
	if opts.CacheDir != "" {
		store, err := modelstore.Open(opts.CacheDir)
		if err != nil {
			return nil, err
		}
		e.store = store
	}
	return e, nil
}

// MustEngine is like NewEngine but panics on error; for fixtures and
// examples where the options are known valid.
func MustEngine(opts EngineOptions) *Engine {
	e, err := NewEngine(opts)
	if err != nil {
		panic(err)
	}
	return e
}

// Model returns the generated privacy LTS for the data-flow model,
// generating it at most once per model fingerprint for the lifetime of the
// engine. Concurrent first calls for the same model block on one generation
// (the leader's); a cancelled caller returns its own ctx.Err() immediately,
// and a generation aborted by cancellation is not cached, so the next caller
// regenerates. Every model has a fingerprint, so every model is cached; a
// nil model is an error.
func (e *Engine) Model(ctx context.Context, m *Model) (*PrivacyModel, error) {
	fp, err := dataflow.Fingerprint(m)
	if err != nil {
		return nil, err
	}
	return e.models.Do(ctx, fp, func(ctx context.Context) (*core.PrivacyLTS, error) {
		if e.store != nil {
			if loaded, err := e.store.Load(fp, m); err == nil {
				e.loads.Add(1)
				return loaded, nil
			}
			// Missing or invalid artifact: fall through and regenerate; the
			// write below replaces it.
		}
		p, err := e.generate(ctx, m)
		if err == nil && e.store != nil {
			// Persisting is best-effort: a full registry disk must not fail
			// the request, and the next cold start simply regenerates.
			_ = e.store.Save(fp, p)
		}
		return p, err
	})
}

// generate runs one instrumented LTS generation. With
// EngineOptions.Incremental it regenerates from the engine's last exploration
// trace where the model delta allows, and reseeds the trace either way.
func (e *Engine) generate(ctx context.Context, m *Model) (*PrivacyModel, error) {
	e.generations.Add(1)
	if e.opts.Incremental {
		var prev *core.PrivacyLTS
		var trace *explore.Result
		if seed := e.lastGen.Load(); seed != nil {
			prev, trace = seed.p, seed.trace
		}
		p, newTrace, report, err := e.generator.RegenerateContext(ctx, prev, trace, m)
		if err != nil {
			return nil, fmt.Errorf("privascope: generating privacy model: %w", err)
		}
		if !report.Fallback {
			e.incremental.Add(1)
		}
		e.lastGen.Store(&lastGeneration{p: p, trace: newTrace})
		return p, nil
	}
	p, err := core.GenerateWithOptionsContext(ctx, m, e.opts.Generate)
	if err != nil {
		return nil, fmt.Errorf("privascope: generating privacy model: %w", err)
	}
	return p, nil
}

// Assess runs the design-time pipeline for one user profile against the
// (cached) privacy model of m: generate-once, analyse, report. On a cache
// hit the generation step is skipped entirely; the disclosure-risk analysis
// is additionally deduplicated by profile shape, so assessing the millionth
// same-shaped user is two cache lookups plus report rendering.
func (e *Engine) Assess(ctx context.Context, m *Model, profile UserProfile) (*AssessResult, error) {
	p, assessment, err := e.analyze(ctx, m, profile)
	if err != nil {
		return nil, err
	}
	return &AssessResult{PrivacyModel: p, Assessment: assessment,
		Report: buildAssessReport(m.Name, p, assessment)}, nil
}

// Analyze returns the disclosure-risk assessment for one profile against the
// (cached) privacy model of m, without building a report.
func (e *Engine) Analyze(ctx context.Context, m *Model, profile UserProfile) (*RiskAssessment, error) {
	_, assessment, err := e.analyze(ctx, m, profile)
	return assessment, err
}

// analyze resolves the model and runs the shape-deduplicated risk analysis.
func (e *Engine) analyze(ctx context.Context, m *Model, profile UserProfile) (*PrivacyModel, *RiskAssessment, error) {
	p, err := e.Model(ctx, m)
	if err != nil {
		return nil, nil, err
	}
	assessment, err := e.assessments.AnalyzeContext(ctx, p, profile)
	if err != nil {
		return nil, nil, fmt.Errorf("privascope: analysing disclosure risk: %w", err)
	}
	return p, assessment, nil
}

// AssessPopulation assesses every profile against the (cached) privacy model
// of m and aggregates the results. Assessments share the engine's
// profile-shape cache, so repeated population scans — and interleaved
// single-user Assess calls — never re-analyse a shape the engine has seen.
func (e *Engine) AssessPopulation(ctx context.Context, m *Model, profiles []UserProfile) (*PopulationAssessment, error) {
	p, err := e.Model(ctx, m)
	if err != nil {
		return nil, err
	}
	return risk.AnalyzePopulationCached(ctx, e.assessments, p, profiles)
}

// Monitor creates a runtime privacy monitor backed by the engine's (cached)
// privacy model of m and the engine's analyzer.
func (e *Engine) Monitor(ctx context.Context, m *Model, cfg MonitorConfig) (*Monitor, error) {
	p, err := e.Model(ctx, m)
	if err != nil {
		return nil, err
	}
	if cfg.Analyzer == nil {
		cfg.Analyzer = e.analyzer
	}
	return NewMonitor(p, cfg)
}

// Generations returns how many LTS generations the engine has actually run —
// the instrumentation behind the generate-once guarantee: concurrent Assess
// calls on one model must leave this at 1.
func (e *Engine) Generations() int64 { return e.generations.Load() }

// Loads returns how many privacy models the engine has loaded from the
// persistent registry (EngineOptions.CacheDir) instead of generating: a warm
// registry makes a cold-started engine report Generations() == 0 and
// Loads() > 0. Always zero when no CacheDir was configured.
func (e *Engine) Loads() int64 { return e.loads.Load() }

// IncrementalHits returns how many generations an incremental engine served
// by replaying its previous exploration trace instead of exploring from
// scratch. Always zero when EngineOptions.Incremental is off.
func (e *Engine) IncrementalHits() int64 { return e.incremental.Load() }

// CachedModels returns the number of distinct model fingerprints currently
// cached (in-flight generations included).
func (e *Engine) CachedModels() int { return e.models.Size() }

// ModelCacheStats reports how many Model lookups were served from the cache
// versus generated.
func (e *Engine) ModelCacheStats() (hits, misses int64) {
	return e.models.Hits(), e.models.Misses()
}

// AssessmentCacheStats reports how many profile analyses were served from
// the shared profile-shape cache versus computed.
func (e *Engine) AssessmentCacheStats() (hits, misses int64) {
	return e.assessments.Hits(), e.assessments.Misses()
}

// ModelFingerprint returns the canonical content fingerprint the Engine keys
// its model cache by: the hex SHA-256 of the model's canonical JSON document
// plus an injective encoding of its access-control policy. Semantically
// different models never share a fingerprint. The only error is a nil model.
func ModelFingerprint(m *Model) (string, error) {
	return dataflow.Fingerprint(m)
}
