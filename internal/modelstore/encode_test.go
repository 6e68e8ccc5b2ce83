package modelstore_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"privascope/internal/accesscontrol"
	"privascope/internal/casestudy"
	"privascope/internal/core"
	"privascope/internal/dataflow"
	"privascope/internal/modelstore"
	"privascope/internal/synth"
)

// largeSpec is the benchmark's "large" model: 15,625 states holding 32
// distinct store sets.
var largeSpec = synth.ModelSpec{Services: 5, FieldsPerService: 3}

func mustEncode(t *testing.T, p *core.PrivacyLTS) []byte {
	t.Helper()
	data, err := modelstore.Encode(p)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return data
}

// TestArtifactBytesPinned pins the artifact bytes across commits, not only
// within one: the SHA-256 of Encode for three models, written down when the
// format became version 3 (no state IDs, no CSR layouts). An encoder rewrite
// that changes a byte — string order, a store record, the padding — fails
// here even when it decodes its own output; only a deliberate format change
// re-pins.
func TestArtifactBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		name  string
		model *dataflow.Model
		sum   string
	}{
		{"surgery", casestudy.Surgery(), "f271ae7f48b287343c45cbc04bd4011e87aa7d3f533126d8d03fb31213f9f8cb"},
		{"default", synth.Model(synth.ModelSpec{}), "31dcca495dffd80f40ba8c9473f574538bbbb4ea3519ef74051f7c6b86ee3941"},
		{"large", synth.Model(largeSpec), "1d2420a83455e20778463f3bbbbfd7f5d7e3341315d11ab269b209a6cbae56fc"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := core.Generate(tc.model)
			if err != nil {
				t.Fatalf("generate: %v", err)
			}
			data := mustEncode(t, p)
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != tc.sum {
				t.Errorf("artifact of %d bytes hashes to %s, pinned %s", len(data), got, tc.sum)
			}
		})
	}
}

// TestRegeneratedModelEncodesLikeGenerated: equal models encode equally,
// however they were built. Regeneration shares the previous model's store
// table (and, for a metadata edit, its graph), so its artifact must come out
// byte for byte as a cold generation of the edited model does.
func TestRegeneratedModelEncodesLikeGenerated(t *testing.T) {
	edits := map[string]func(*dataflow.Model){
		"metadata": func(m *dataflow.Model) { m.Actors[0].Name += " (renamed)" },
		"policy": func(m *dataflow.Model) {
			m.Policy = m.Policy.(*accesscontrol.ACL).Restrict("maintenance", "store0", []string{"field_0_0"})
		},
	}
	ctx := context.Background()
	for _, spec := range []struct {
		name string
		spec synth.ModelSpec
	}{{"default", synth.ModelSpec{}}, {"large", largeSpec}} {
		for edit, apply := range edits {
			t.Run(spec.name+"/"+edit, func(t *testing.T) {
				edited := synth.Model(spec.spec)
				apply(edited)
				gen := core.NewGenerator(core.Options{})
				prev, trace, _, err := gen.GenerateTracedContext(ctx, synth.Model(spec.spec))
				if err != nil {
					t.Fatalf("generate: %v", err)
				}
				regenerated, _, report, err := gen.RegenerateContext(ctx, prev, trace, edited)
				if err != nil {
					t.Fatalf("regenerate: %v", err)
				}
				if report.Fallback {
					t.Fatalf("the replay fell back: %s", report.FallbackReason)
				}
				cold, err := core.Generate(edited)
				if err != nil {
					t.Fatalf("generate edited: %v", err)
				}
				if got, want := mustEncode(t, regenerated), mustEncode(t, cold); !bytes.Equal(got, want) {
					t.Fatalf("regenerated model encodes to %d bytes that differ from the %d bytes of a cold generation", len(got), len(want))
				}
			})
		}
	}
}

// TestEncodeAllocatesAboutTheArtifact: Encode writes each section once, in
// place, into the artifact it returns, so what it allocates is that artifact
// plus the string table's bookkeeping — not a buffer per section, a copy of
// them all and a sorted name list per state.
func TestEncodeAllocatesAboutTheArtifact(t *testing.T) {
	p, err := core.Generate(synth.Model(largeSpec))
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	size := len(mustEncode(t, p))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	mustEncode(t, p)
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("Encode allocated %d bytes for a %d-byte artifact (%.2fx)", allocated, size, float64(allocated)/float64(size))
	if allocated > 2*uint64(size) {
		t.Errorf("Encode allocated %d bytes, more than twice the %d-byte artifact", allocated, size)
	}
}
