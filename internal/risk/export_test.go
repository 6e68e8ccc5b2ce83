package risk

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

var ReferenceAnalyze = referenceAnalyze // for property tests over proptest/scenario, which imports risk

// MustAnalyzer is like NewAnalyzer but panics on error; for fixtures.
func MustAnalyzer(cfg Config) *Analyzer {
	a, err := NewAnalyzer(cfg)
	if err != nil {
		panic(err)
	}
	return a
}

// ParseLevel converts a level name back into a Level.
func ParseLevel(s string) (Level, error) {
	for l := LevelNone; l <= LevelHigh; l++ {
		if levelNames[l] == strings.ToLower(strings.TrimSpace(s)) {
			return l, nil
		}
	}
	return 0, fmt.Errorf("risk: unknown level %q", s)
}

// FindingsFor returns the findings involving the given actor.
func (a *Assessment) FindingsFor(actor string) []Finding {
	var out []Finding
	for _, f := range a.Findings {
		if f.Actor == actor {
			out = append(out, f)
		}
	}
	return out
}

// Analyzer returns the underlying analyzer.
func (c *AssessmentCache) Analyzer() *Analyzer { return c.analyzer }

// Size returns the number of distinct (model, shape) pairs cached.
func (c *AssessmentCache) Size() int { return c.entries.Size() }

// CollideShapes sends every profile to one hash bucket of every Shapes until
// the returned function restores the hash.
func CollideShapes() (restore func()) {
	hashMask = 0
	return func() { hashMask = ^uint64(0) }
}

// Fingerprint returns a canonical encoding of the profile's risk-relevant
// shape: the sorted consented services, the sorted per-field sensitivities
// and the default sensitivity. The user ID is deliberately excluded — two
// users with the same fingerprint receive identical assessments against the
// same privacy model. It is the reference Shapes is tested against: two
// profiles share a shape id exactly when their fingerprints are equal.
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
