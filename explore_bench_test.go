// Benchmarks and acceptance tests for the internal/explore subsystem: the
// arena-backed frontier allocator, symmetry-reduced exploration, and
// incremental regeneration from a previous exploration trace.

package privascope_test

import (
	"context"
	"testing"

	"privascope"
	"privascope/internal/accesscontrol"
	"privascope/internal/core"
	"privascope/internal/dataflow"
	"privascope/internal/synth"
)

// TestExploreAllocReduction pins the headline win of the arena/slab frontier
// allocator: generating the BenchmarkLTSGenerationParallel model (5 services,
// 15625 states) must allocate at least 5x less than the pre-explore engine.
// Commit 8924b81's benchmark record (its BENCH_6.json) has 705,864 allocs/op
// for workers=1 on this exact model; the arena-backed driver has to stay under
// a fifth of that.
func TestExploreAllocReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement generates a 15625-state model")
	}
	model := synth.Model(synth.ModelSpec{Services: 5, FieldsPerService: 3})
	const baselineAllocs = 705864 // commit 8924b81, BenchmarkLTSGenerationParallel/workers=1
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := privascope.GenerateWithOptions(model, privascope.GenerateOptions{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	})
	if max := float64(baselineAllocs) / 5; allocs > max {
		t.Fatalf("generation allocated %.0f objects, want <= %.0f (5x below the %d pre-arena baseline)",
			allocs, max, baselineAllocs)
	}
	t.Logf("allocs/generation = %.0f (baseline %d, reduction %.1fx)",
		allocs, baselineAllocs, float64(baselineAllocs)/allocs)
}

// BenchmarkExploreSymmetry compares plain exploration against the
// symmetry-reduced strategy on a model with four interchangeable replicas.
// Both produce byte-identical output; the symmetry run explores only the
// canonical quotient (reported as canonical_states) before expanding it back.
func BenchmarkExploreSymmetry(b *testing.B) {
	model := synth.SymmetricModel(synth.SymmetricSpec{Replicas: 4, Fields: 2})
	for _, sym := range []struct {
		name string
		on   bool
	}{{"full", false}, {"symmetry", true}} {
		b.Run(sym.name, func(b *testing.B) {
			gen := core.NewGenerator(core.Options{Workers: 1,
				Explore: core.ExploreOptions{Symmetry: sym.on}})
			p, _, report, err := gen.GenerateTracedContext(context.Background(), model)
			if err != nil {
				b.Fatal(err)
			}
			states := p.Stats().States
			b.ReportMetric(float64(states), "states")
			if sym.on {
				b.ReportMetric(float64(report.CanonicalStates), "canonical_states")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := gen.GenerateTracedContext(context.Background(), model); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExploreIncremental compares a cold regeneration against the two
// incremental tiers on a 15625-state model. A metadata edit (flow purpose
// relabel) leaves the state space, edge set and vectors provably unchanged,
// so regeneration reuses the previous trace wholesale and only remaps labels;
// a read-policy edit (one reader revoked) forces a driver replay that serves
// every expansion from the trace but still re-resolves each successor.
func BenchmarkExploreIncremental(b *testing.B) {
	before := synth.Model(synth.ModelSpec{Services: 5, FieldsPerService: 3})
	afterMeta := synth.Model(synth.ModelSpec{Services: 5, FieldsPerService: 3})
	afterMeta.Flows[0].Purpose = "relabelled"
	afterPolicy := synth.Model(synth.ModelSpec{Services: 5, FieldsPerService: 3})
	afterPolicy.Policy = afterPolicy.Policy.(*accesscontrol.ACL).WithoutActor("maintenance", "store0")

	gen := core.NewGenerator(core.Options{Workers: 1})
	ctx := context.Background()
	prev, trace, _, err := gen.GenerateTracedContext(ctx, before)
	if err != nil {
		b.Fatal(err)
	}

	run := func(after *dataflow.Model, incremental bool) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var report *core.ExploreReport
				var err error
				if incremental {
					_, _, report, err = gen.RegenerateContext(ctx, prev, trace, after)
				} else {
					_, _, report, err = gen.GenerateTracedContext(ctx, after)
				}
				if err != nil {
					b.Fatal(err)
				}
				if incremental && report.Fallback {
					b.Fatalf("replay fell back: %s", report.FallbackReason)
				}
			}
		}
	}
	b.Run("cold", run(afterPolicy, false))
	b.Run("replay-metadata", run(afterMeta, true))
	b.Run("replay-policy", run(afterPolicy, true))
}
