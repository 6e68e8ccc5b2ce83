package risk

import (
	"context"

	"privascope/internal/core"
	"privascope/internal/flight"
)

// cacheKey identifies one cached analysis: the model instance (by identity —
// a PrivacyLTS is immutable once generated) and the profile's shape id.
type cacheKey struct {
	model *core.PrivacyLTS
	shape int32
}

// AssessmentCache deduplicates risk assessments across users with identical
// profile shapes (Shapes). The first analysis of each (model, shape)
// pair runs the full Analyzer; every subsequent request returns the shared
// result in O(1), with only the Profile swapped for the caller's. It is safe
// for concurrent use: concurrent first requests for a shape are
// single-flighted (one analysis, everyone shares the result), waiters honour
// their own context, and an analysis aborted by cancellation is forgotten
// rather than cached.
//
// Findings of a cached assessment are shared between callers and must be
// treated as immutable, which matches the Analyzer contract (analyses never
// mutate their outputs after returning them).
type AssessmentCache struct {
	analyzer *Analyzer
	shapes   Shapes
	entries  flight.Group[cacheKey, *Assessment]
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

// Hits returns how many AnalyzeContext calls were served from the cache.
func (c *AssessmentCache) Hits() int64 { return c.entries.Hits() }

// Misses returns how many AnalyzeContext calls computed a fresh assessment.
func (c *AssessmentCache) Misses() int64 { return c.entries.Misses() }
