package risk

import (
	"fmt"
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
