// Property tests of the exploration strategies: symmetry reduction and
// incremental regeneration are pure optimisations, so for every drawable
// scenario their output must be byte-identical to the plain cold generation.
// The tests live in the external test package so they can drive the
// strategies through internal/core, the subsystem's only real caller.

package explore_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"

	"testing"

	"privascope/internal/accesscontrol"
	"privascope/internal/core"
	"privascope/internal/dataflow"
	"privascope/internal/explore"
	"privascope/internal/proptest"
	"privascope/internal/proptest/scenario"
	"privascope/internal/synth"
)

// digest hashes the complete serialised LTS plus its verbose DOT rendering,
// so any divergence in state numbering, labels, vectors or store contents
// changes the digest (the same construction as internal/core's test digest).
func digest(p *core.PrivacyLTS) (string, error) {
	data, err := json.Marshal(p)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write(data)
	h.Write([]byte(p.DOT(core.DOTOptions{VerboseStates: true})))
	return hex.EncodeToString(h.Sum(nil)), nil
}

// modelPair draws the same random model twice from one seed: two structurally
// independent copies the caller can mutate apart and diff.
func modelPair(seed int64) (*dataflow.Model, *dataflow.Model) {
	spec := scenario.RandomModelSpec{Policy: scenario.PolicyACL}
	before := scenario.RandomModel(rand.New(rand.NewSource(seed)), spec)
	after := scenario.RandomModel(rand.New(rand.NewSource(seed)), spec)
	return before, after
}

func drawMode(rng *rand.Rand) core.PotentialReadMode {
	return []core.PotentialReadMode{
		core.PotentialReadsOff, core.PotentialReadsTerminal, core.PotentialReadsFull,
	}[rng.Intn(3)]
}

// TestPropSymmetryDigest: symmetry-reduced exploration must be invisible in
// the output. For any model — fully symmetric, partially symmetric or
// asymmetric — and any worker count, the quotient-expanded LTS is
// byte-identical to the plain exploration's, and the canonical state count
// never exceeds the full one.
func TestPropSymmetryDigest(t *testing.T) {
	proptest.Run(t, func(seed int64, rng *rand.Rand) error {
		var m *dataflow.Model
		if rng.Intn(2) == 0 {
			m = synth.SymmetricModel(synth.SymmetricSpec{
				Replicas: 2 + rng.Intn(3), Fields: 1 + rng.Intn(2),
			})
		} else {
			m, _ = modelPair(seed)
		}
		mode := drawMode(rng)
		workers := []int{1, 2, 4}[rng.Intn(3)]

		plain, err := core.GenerateWithOptions(m, core.Options{PotentialReads: mode, Workers: workers})
		if err != nil {
			return fmt.Errorf("plain generate: %w", err)
		}
		gen := core.NewGenerator(core.Options{
			PotentialReads: mode, Workers: workers,
			Explore: core.ExploreOptions{Symmetry: true},
		})
		reduced, _, report, err := gen.GenerateTracedContext(t.Context(), m)
		if err != nil {
			return fmt.Errorf("symmetry generate: %w", err)
		}
		pd, err := digest(plain)
		if err != nil {
			return err
		}
		rd, err := digest(reduced)
		if err != nil {
			return err
		}
		if pd != rd {
			return fmt.Errorf("model %q mode=%v workers=%d: symmetry digest %s != plain digest %s",
				m.Name, mode, workers, rd, pd)
		}
		if report.CanonicalStates > plain.Stats().States {
			return fmt.Errorf("model %q: %d canonical states exceed the %d full states",
				m.Name, report.CanonicalStates, plain.Stats().States)
		}
		return nil
	})
}

// mutateSafe applies 1..3 random replay-safe mutations to m — metadata
// relabels and ACL policy edits — and describes them. None may change the
// model's structure, so the resulting delta is never unsafe.
func mutateSafe(rng *rand.Rand, m *dataflow.Model) string {
	desc := ""
	stores := m.DatastoreIDs()
	actors := m.ActorIDs()
	fields := m.FieldUniverse()
	for n := 1 + rng.Intn(3); n > 0; n-- {
		switch rng.Intn(4) {
		case 0:
			i := rng.Intn(len(m.Flows))
			m.Flows[i].Purpose = fmt.Sprintf("mut-purpose-%d", rng.Intn(1000))
			desc += fmt.Sprintf("[relabel flow %d]", i)
		case 1:
			m.Name += "-mutated"
			desc += "[rename model]"
		case 2:
			a, s := actors[rng.Intn(len(actors))], stores[rng.Intn(len(stores))]
			m.Policy = m.Policy.(*accesscontrol.ACL).Restrict(a, s, nil)
			desc += fmt.Sprintf("[revoke %s@%s]", a, s)
		case 3:
			g := accesscontrol.Grant{
				Actor:       actors[rng.Intn(len(actors))],
				Datastore:   stores[rng.Intn(len(stores))],
				Fields:      []string{fields[rng.Intn(len(fields))]},
				Permissions: []accesscontrol.Permission{accesscontrol.PermissionRead},
				Reason:      "property-test grant",
			}
			if err := m.Policy.(*accesscontrol.ACL).Add(g); err == nil {
				desc += fmt.Sprintf("[grant %s@%s]", g.Actor, g.Datastore)
			}
		}
	}
	return desc
}

// TestPropDeltaRegenMatchesCold: for any random model and any replay-safe
// mutation of it, incremental regeneration from the previous trace produces
// an LTS byte-identical to a cold generation of the mutated model, without
// falling back.
func TestPropDeltaRegenMatchesCold(t *testing.T) {
	proptest.Run(t, func(seed int64, rng *rand.Rand) error {
		before, after := modelPair(seed)
		desc := mutateSafe(rng, after)
		opts := core.Options{PotentialReads: drawMode(rng), Workers: 1 + rng.Intn(4)}

		gen := core.NewGenerator(opts)
		prev, trace, _, err := gen.GenerateTracedContext(t.Context(), before)
		if err != nil {
			return fmt.Errorf("cold generate (before): %w", err)
		}
		got, _, report, err := gen.RegenerateContext(t.Context(), prev, trace, after)
		if err != nil {
			return fmt.Errorf("regenerate %s: %w", desc, err)
		}
		if report.Fallback {
			return fmt.Errorf("safe delta %s fell back: kind=%s reason=%q",
				desc, report.DeltaKind, report.FallbackReason)
		}
		cold, err := core.GenerateWithOptions(after, opts)
		if err != nil {
			return fmt.Errorf("cold generate (after): %w", err)
		}
		gd, err := digest(got)
		if err != nil {
			return err
		}
		cd, err := digest(cold)
		if err != nil {
			return err
		}
		if gd != cd {
			return fmt.Errorf("mutations %s (kind=%s, %d affected readers): regenerated digest %s != cold digest %s",
				desc, report.DeltaKind, report.AffectedReaders, gd, cd)
		}
		return nil
	})
}

// TestPropUnsafeDeltaFallsBack: any structural mutation must classify as an
// unsafe delta, force regeneration back onto the full cold path, and still
// produce output byte-identical to a cold generation of the changed model —
// falling back never loses correctness.
func TestPropUnsafeDeltaFallsBack(t *testing.T) {
	proptest.Run(t, func(seed int64, rng *rand.Rand) error {
		before, after := modelPair(seed)
		var desc string
		switch rng.Intn(3) {
		case 0:
			after.Actors = append(after.Actors, dataflow.Actor{ID: "zz-extra", Name: "Extra"})
			desc = "add actor"
		case 1:
			after.Services = append(after.Services, dataflow.Service{ID: "zz-svc", Name: "Extra Service"})
			desc = "add service"
		case 2:
			last := len(after.Datastores) - 1
			after.Datastores = after.Datastores[:last]
			pruned := before.Datastores[last].ID
			flows := after.Flows[:0]
			for _, f := range after.Flows {
				if f.From != pruned && f.To != pruned {
					flows = append(flows, f)
				}
			}
			after.Flows = flows
			desc = "remove datastore"
		}

		if d := explore.Diff(before, after); d.Kind != explore.DeltaUnsafe {
			return fmt.Errorf("%s classified as %s, want unsafe", desc, d.Kind)
		}
		opts := core.Options{PotentialReads: drawMode(rng), Workers: 1}
		gen := core.NewGenerator(opts)
		prev, trace, _, err := gen.GenerateTracedContext(t.Context(), before)
		if err != nil {
			return fmt.Errorf("cold generate (before): %w", err)
		}
		got, _, report, err := gen.RegenerateContext(t.Context(), prev, trace, after)
		if err != nil {
			return fmt.Errorf("regenerate after %s: %w", desc, err)
		}
		if report.Mode != "full" || !report.Fallback || report.FallbackReason == "" {
			return fmt.Errorf("%s: mode=%q fallback=%v reason=%q, want a full fallback with a reason",
				desc, report.Mode, report.Fallback, report.FallbackReason)
		}
		cold, err := core.GenerateWithOptions(after, opts)
		if err != nil {
			return fmt.Errorf("cold generate (after): %w", err)
		}
		gd, err := digest(got)
		if err != nil {
			return err
		}
		cd, err := digest(cold)
		if err != nil {
			return err
		}
		if gd != cd {
			return fmt.Errorf("%s: fallback digest %s != cold digest %s", desc, gd, cd)
		}
		return nil
	})
}
