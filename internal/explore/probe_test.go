package explore_test

import (
	"context"
	"testing"

	"privascope/internal/core"
	"privascope/internal/synth"
)

// TestGeneratedTableProbeLength holds the visited table's probe length on the
// state spaces the benchmark generates (its xl, large and medium specs): the
// packed states differ mostly in high has/store bits and in 16-bit progress
// counters, which a hash with unmixed low bits piles onto a few home slots
// (hundreds of probes a lookup, measured at the commit before this test).
func TestGeneratedTableProbeLength(t *testing.T) {
	for name, spec := range map[string]synth.ModelSpec{
		"xl":     {Services: 6, FieldsPerService: 2},
		"large":  {Services: 5, FieldsPerService: 3},
		"medium": {Services: 4, FieldsPerService: 3},
	} {
		spec.Seed = 1
		_, trace, _, err := core.NewGenerator(core.Options{}).GenerateTracedContext(context.Background(), synth.Model(spec))
		if err != nil {
			t.Fatal(err)
		}
		hits, misses, load := trace.LookupProbes()
		t.Logf("%s: %d states, table load %.2f: hits mean %.2f max %d, misses mean %.2f max %d",
			name, trace.NumStates, load, hits.Mean, hits.Max, misses.Mean, misses.Max)
		if hits.Mean > 4 || hits.Max > 64 || misses.Mean > 4 || misses.Max > 64 {
			t.Errorf("%s: probes per lookup above mean 4 / max 64", name)
		}
	}
}
