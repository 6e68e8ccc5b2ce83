package explore_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"privascope/internal/accesscontrol"
	"privascope/internal/core"
	"privascope/internal/dataflow"
	"privascope/internal/explore"
	"privascope/internal/synth"
)

// mutateScript interprets data as a mutation script over a fresh copy of the
// base synthetic model: each byte is one opcode/operand pair (high bits pick
// operands, low bits the opcode) applying a metadata relabel, an ACL policy
// edit, or a structural change. The interpretation is total — every byte
// sequence yields a valid model — and pure, so fuzz findings reproduce.
func mutateScript(data []byte) *dataflow.Model {
	m := synth.Model(synth.ModelSpec{})
	stores := m.DatastoreIDs()
	actors := m.ActorIDs()
	fields := m.FieldUniverse()
	for i, b := range data {
		op := int(b) % 6
		arg := int(b) / 6
		switch op {
		case 0:
			m.Flows[arg%len(m.Flows)].Purpose = fmt.Sprintf("fuzz-purpose-%d", arg)
		case 1:
			m.Name = fmt.Sprintf("fuzz-model-%d", arg)
		case 2:
			m.Policy = m.Policy.(*accesscontrol.ACL).
				Restrict(actors[arg%len(actors)], stores[arg%len(stores)], nil)
		case 3:
			_ = m.Policy.(*accesscontrol.ACL).Add(accesscontrol.Grant{
				Actor:       actors[arg%len(actors)],
				Datastore:   stores[arg%len(stores)],
				Fields:      []string{fields[arg%len(fields)]},
				Permissions: []accesscontrol.Permission{accesscontrol.PermissionRead},
				Reason:      "fuzz grant",
			})
		case 4:
			m.Actors = append(m.Actors, dataflow.Actor{
				ID: fmt.Sprintf("zz-fuzz-%d", i), Name: "Fuzz Actor",
			})
		case 5:
			m.Services = append(m.Services, dataflow.Service{
				ID: fmt.Sprintf("zz-svc-%d", i), Name: "Fuzz Service",
			})
		}
	}
	return m
}

// deltaCorpusSeeds is the canonical seed corpus: one script per delta kind
// plus a mixed script that layers policy edits under a structural change.
func deltaCorpusSeeds() map[string][]byte {
	return map[string][]byte{
		"identical":     {},
		"metadata":      {0, 7},           // purpose + name relabels
		"policy-revoke": {2},              // revoke one reader
		"policy-grant":  {3, 33},          // extra read grants
		"unsafe-actor":  {4},              // new actor
		"unsafe-mixed":  {0, 2, 3, 5, 17}, // relabels + policy edits + new service
	}
}

// FuzzModelDelta drives the model differ with arbitrary mutation scripts.
// Total invariants, whatever the script: Diff never panics and classifies
// every self-diff as identical; for enumerable (non-unsafe) deltas,
// ApplyPolicy patched onto the before-policy answers exactly like the
// after-policy over the delta's scope (the diff/apply round-trip); and
// regeneration from a stale trace either replays or falls back — both paths
// must land byte-identical to a cold generation of the mutated model.
func FuzzModelDelta(f *testing.F) {
	for _, seed := range deltaCorpusSeeds() {
		f.Add(seed)
	}
	before := synth.Model(synth.ModelSpec{})
	opts := core.Options{PotentialReads: core.PotentialReadsTerminal, Workers: 1}
	gen := core.NewGenerator(opts)
	prev, trace, _, err := gen.GenerateTracedContext(f.Context(), before)
	if err != nil {
		f.Fatalf("cold generate (before): %v", err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			data = data[:64] // bound per-input work; longer scripts only repeat opcodes
		}
		after := mutateScript(data)

		if d := explore.Diff(after, after); d.Kind != explore.DeltaIdentical {
			t.Fatalf("self-diff classified as %s, want identical", d.Kind)
		}
		d := explore.Diff(before, after)
		if d.Kind == explore.DeltaUnsafe {
			if len(d.Reasons) == 0 {
				t.Fatal("unsafe delta carries no reason")
			}
		} else {
			patched := d.ApplyPolicy(before.Policy)
			for _, actor := range d.Scope.Actors {
				for store, fields := range d.Scope.Datastores {
					for _, field := range fields {
						for _, perm := range []accesscontrol.Permission{
							accesscontrol.PermissionRead, accesscontrol.PermissionWrite, accesscontrol.PermissionDelete,
						} {
							want := after.Policy.Allows(actor, store, field, perm)
							if got := patched.Allows(actor, store, field, perm); got != want {
								t.Fatalf("diff/apply round-trip: patched(%s, %s, %s, %v) = %v, after-policy says %v",
									actor, store, field, perm, got, want)
							}
						}
					}
				}
			}
		}

		got, _, report, err := gen.RegenerateContext(t.Context(), prev, trace, after)
		if err != nil {
			t.Fatalf("regenerate: %v", err)
		}
		if (d.Kind == explore.DeltaUnsafe) != report.Fallback {
			t.Fatalf("delta kind %s but regeneration fallback=%v (reason=%q)",
				d.Kind, report.Fallback, report.FallbackReason)
		}
		cold, err := core.GenerateWithOptionsContext(context.Background(), after, opts)
		if err != nil {
			t.Fatalf("cold generate (after): %v", err)
		}
		gd, err := digest(got)
		if err != nil {
			t.Fatal(err)
		}
		cd, err := digest(cold)
		if err != nil {
			t.Fatal(err)
		}
		if gd != cd {
			t.Fatalf("script %v (kind=%s fallback=%v): regenerated digest %s != cold digest %s",
				data, d.Kind, report.Fallback, gd, cd)
		}
	})
}

// TestFuzzCorpusCommitted checks the committed FuzzModelDelta seed corpus
// stays in sync with the scripts above: each entry exists in go-fuzz v1 form,
// matches its canonical bytes, and its script still produces the delta kind
// its name promises. Regenerate with EXPLORE_REGEN_CORPUS=1 after a
// deliberate change to the opcode table.
func TestFuzzCorpusCommitted(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzModelDelta")
	seeds := deltaCorpusSeeds()
	if os.Getenv("EXPLORE_REGEN_CORPUS") != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range seeds {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(data)))
			if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := synth.Model(synth.ModelSpec{})
	for name, want := range seeds {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("corpus entry %s missing (regenerate with EXPLORE_REGEN_CORPUS=1): %v", name, err)
		}
		const header = "go test fuzz v1\n[]byte("
		s := string(raw)
		if !strings.HasPrefix(s, header) || !strings.HasSuffix(s, ")\n") {
			t.Fatalf("corpus entry %s is not in go-fuzz v1 form", name)
		}
		data, err := strconv.Unquote(s[len(header) : len(s)-2])
		if err != nil {
			t.Fatalf("corpus entry %s: %v", name, err)
		}
		if !bytes.Equal([]byte(data), want) {
			t.Fatalf("corpus entry %s is stale; regenerate with EXPLORE_REGEN_CORPUS=1", name)
		}
		kind := explore.Diff(before, mutateScript([]byte(data))).Kind
		wantKind := map[string]explore.DeltaKind{
			"identical":     explore.DeltaIdentical,
			"metadata":      explore.DeltaMetadata,
			"policy-revoke": explore.DeltaPolicy,
			"policy-grant":  explore.DeltaPolicy,
			"unsafe-actor":  explore.DeltaUnsafe,
			"unsafe-mixed":  explore.DeltaUnsafe,
		}[name]
		if kind != wantKind {
			t.Fatalf("corpus entry %s produces a %s delta, want %s", name, kind, wantKind)
		}
	}
}
