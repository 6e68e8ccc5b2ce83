package risk

import (
	"context"

	"privascope/internal/core"
	"privascope/internal/flight"
)

// cacheKey identifies one cached analysis: the model instance (by identity —
// a PrivacyLTS is immutable once generated), the profile's shape id and, for
// an alert table, its threshold (zero for a whole assessment).
type cacheKey struct {
	model     *core.PrivacyLTS
	shape     int32
	threshold Level
}

// AssessmentCache deduplicates risk analyses across users with identical
// profile shapes (Shapes): one cache serves an Engine's assessments and every
// runtime monitor that borrows it. The first analysis of each
// (model, shape) pair runs the Analyzer; every subsequent request returns the
// shared result in O(1). It is safe for concurrent use: concurrent first
// requests for a shape are single-flighted (one analysis, everyone shares the
// result), waiters honour their own context, and an analysis aborted by
// cancellation is forgotten rather than cached.
//
// Findings of a cached result are shared between callers and must be treated
// as immutable, which matches the Analyzer contract (analyses never mutate
// their outputs after returning them).
type AssessmentCache struct {
	analyzer *Analyzer
	shapes   Shapes
	entries  flight.Group[cacheKey, *Assessment]
	alerts   flight.Group[cacheKey, *[]*Finding]
}

// NewAssessmentCache wraps the analyzer with a shape-keyed cache.
// A nil analyzer selects the default configuration.
func NewAssessmentCache(analyzer *Analyzer) (*AssessmentCache, error) {
	if analyzer == nil {
		var err error
		analyzer, err = NewAnalyzer(Config{})
		if err != nil {
			return nil, err
		}
	}
	return &AssessmentCache{analyzer: analyzer}, nil
}

// AnalyzeContext returns the assessment for the profile, computing it at
// most once per (model, profile shape). The returned Assessment carries the
// caller's profile; its Findings slice is shared with every other user of the
// same shape. The analysis polls ctx while walking the model's transitions, a
// caller blocked on another caller's in-flight analysis of the same shape
// returns its own ctx.Err() when ctx is done, and a cancelled analysis is not
// cached.
func (c *AssessmentCache) AnalyzeContext(ctx context.Context, p *core.PrivacyLTS, profile UserProfile) (*Assessment, error) {
	_, shape, err := c.shapes.Intern(profile)
	if err != nil {
		return nil, err
	}
	shared, err := c.entries.Do(ctx, cacheKey{model: p, shape: shape}, func(ctx context.Context) (*Assessment, error) {
		return c.analyzer.AnalyzeContext(ctx, p, profile)
	})
	if err != nil {
		return nil, err
	}
	assessment := *shared
	assessment.Profile = profile
	return &assessment, nil
}

// AlertFindings interns the profile and returns its record id in the cache's
// registry (Profile reads it back) and its shape's Analyzer.AlertFindings
// table, computed at most once per (model, shape, threshold) with
// AnalyzeContext's single-flight and cancellation rules. The table is shared
// with every other user of the shape and must be treated as read-only.
func (c *AssessmentCache) AlertFindings(ctx context.Context, p *core.PrivacyLTS, profile UserProfile, threshold Level) (int32, *[]*Finding, error) {
	record, shape, err := c.shapes.Intern(profile)
	if err != nil {
		return -1, nil, err
	}
	findings, err := c.alerts.Do(ctx, cacheKey{model: p, shape: shape, threshold: threshold}, func(ctx context.Context) (*[]*Finding, error) {
		findings, err := c.analyzer.AlertFindings(ctx, p, profile, threshold)
		return &findings, err
	})
	return record, findings, err
}

// Profile returns the interned record, its ID empty (Shapes.Profile).
func (c *AssessmentCache) Profile(record int32) UserProfile { return c.shapes.Profile(record) }

// Hits returns how many lookups, by either method, were served from the cache.
func (c *AssessmentCache) Hits() int64 { return c.entries.Hits() + c.alerts.Hits() }

// Misses returns how many lookups, by either method, computed afresh.
func (c *AssessmentCache) Misses() int64 { return c.entries.Misses() + c.alerts.Misses() }
