package lts

import (
	"math/rand"
	"testing"

	"privascope/internal/proptest"
)

// The properties here run in the internal test package so they can compare
// against the LTS's internals. internal/proptest is std-lib-only precisely so
// this lowest layer can use the harness without an import cycle.

// TestPropCompiledRoundTrip: an LTS built from a random collected graph
// inverts exactly — states, dense indices, initial state, edges, both CSR
// layouts and the label table all map back to the collected lists.
func TestPropCompiledRoundTrip(t *testing.T) {
	proptest.Run(t, func(seed int64, rng *rand.Rand) error {
		g := randomGraph(rng, 30, 120, 6)
		return checkBuiltFrom(g, g.build())
	})
}
