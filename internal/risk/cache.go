package risk

import (
	"context"
	"sort"
	"strconv"
	"strings"

	"privascope/internal/core"
	"privascope/internal/flight"
)

// Fingerprint returns a canonical encoding of the profile's risk-relevant
// shape: the sorted consented services, the sorted per-field sensitivities
// and the default sensitivity. The user ID is deliberately excluded — two
// users with the same fingerprint receive identical assessments against the
// same privacy model, which is what lets AssessmentCache share one analysis
// across an arbitrarily large population of same-shaped users.
func (u UserProfile) Fingerprint() string {
	services := append([]string(nil), u.ConsentedServices...)
	sort.Strings(services)
	fields := make([]string, 0, len(u.Sensitivities))
	for f := range u.Sensitivities {
		fields = append(fields, f)
	}
	sort.Strings(fields)

	// Every name is length-prefixed so the encoding is injective: no choice
	// of service or field names (which may contain any byte) can make two
	// different shapes render identically. Floats are canonical via
	// FormatFloat and terminated by ';', which no float contains.
	var b strings.Builder
	writeName := func(s string) {
		b.WriteString(strconv.Itoa(len(s)))
		b.WriteByte(':')
		b.WriteString(s)
	}
	b.WriteString("svc")
	for _, s := range services {
		b.WriteByte(';')
		writeName(s)
	}
	b.WriteString("|def:")
	b.WriteString(strconv.FormatFloat(u.DefaultSensitivity, 'g', -1, 64))
	b.WriteString("|sens")
	for _, f := range fields {
		b.WriteByte(';')
		writeName(f)
		b.WriteByte('=')
		b.WriteString(strconv.FormatFloat(u.Sensitivities[f], 'g', -1, 64))
	}
	return b.String()
}

// cacheKey identifies one cached analysis: the model instance (by identity —
// a PrivacyLTS is immutable once generated) and the profile fingerprint.
type cacheKey struct {
	model       *core.PrivacyLTS
	fingerprint string
}

// AssessmentCache deduplicates risk assessments across users with identical
// profile shapes (Fingerprint). The first analysis of each (model, shape)
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
	entries  flight.Group[cacheKey, *Assessment]
}

// NewAssessmentCache wraps the analyzer with a fingerprint-keyed cache.
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
	return c.AnalyzeFingerprinted(ctx, p, profile, profile.Fingerprint())
}

// AnalyzeFingerprinted is AnalyzeContext for callers that already hold the
// profile's Fingerprint, sparing its recomputation on per-user hot loops
// (population scans fingerprint each profile for their DistinctShapes
// accounting anyway). fingerprint must equal profile.Fingerprint().
func (c *AssessmentCache) AnalyzeFingerprinted(ctx context.Context, p *core.PrivacyLTS, profile UserProfile, fingerprint string) (*Assessment, error) {
	key := cacheKey{model: p, fingerprint: fingerprint}
	shared, err := c.entries.Do(ctx, key, func(ctx context.Context) (*Assessment, error) {
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
