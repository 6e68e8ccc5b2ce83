package modelstore_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"privascope/internal/core"
	"privascope/internal/modelstore"
	"privascope/internal/synth"
)

// corpusSeeds builds the canonical seed inputs: a valid artifact, a
// truncated header, a flipped payload byte (checksum violation), and a
// checksum-valid artifact claiming a future format version.
func corpusSeeds(tb testing.TB) map[string][]byte {
	tb.Helper()
	p, err := core.Generate(synth.Model(synth.ModelSpec{}))
	if err != nil {
		tb.Fatalf("generate: %v", err)
	}
	valid, err := modelstore.Encode(p)
	if err != nil {
		tb.Fatalf("encode: %v", err)
	}
	truncated := append([]byte(nil), valid[:40]...)
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x20
	future := append([]byte(nil), valid...)
	future[8] = byte(modelstore.FormatVersion + 1)
	if _, err := modelstore.Reseal(future); err != nil {
		tb.Fatalf("reseal: %v", err)
	}
	return map[string][]byte{
		"valid":            valid,
		"truncated-header": truncated,
		"flipped-checksum": flipped,
		"future-version":   future,
	}
}

// FuzzStoreDecode feeds arbitrary bytes to the artifact decoder. The
// invariant is total: any input either decodes to a model byte-identical to
// the generated one (only a faithful artifact can pass the fingerprint and
// structural checks) or returns an error — never a panic, never a wrong
// model. An accepted artifact also re-encodes to the very bytes it came from:
// decode∘encode is a fixpoint, so the format has one spelling per model.
// And an accepted artifact compiles to the generated model's view: the same
// edge classes, which core's TestInvariantCompiledViewClasses checks against
// the state vectors, and every edge in the same class.
func FuzzStoreDecode(f *testing.F) {
	m := synth.Model(synth.ModelSpec{})
	p, err := core.Generate(m)
	if err != nil {
		f.Fatalf("generate: %v", err)
	}
	wantJSON, err := p.MarshalJSON()
	if err != nil {
		f.Fatalf("marshal: %v", err)
	}
	for _, seed := range corpusSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = modelstore.Fingerprint(data) // the shallow probe must not panic either
		decoded, err := modelstore.Decode(data, m)
		if err != nil {
			return
		}
		gotJSON, err := decoded.MarshalJSON()
		if err != nil {
			t.Fatalf("decoded model fails to marshal: %v", err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("decoder accepted an artifact that yields a different model")
		}
		reencoded, err := modelstore.Encode(decoded)
		if err != nil {
			t.Fatalf("decoded model fails to encode: %v", err)
		}
		if !bytes.Equal(reencoded, data) {
			t.Fatalf("accepted artifact of %d bytes re-encodes to %d different bytes", len(data), len(reencoded))
		}
		got, want := decoded.Compiled(), p.Compiled()
		if !reflect.DeepEqual(got.Classes(), want.Classes()) {
			t.Fatalf("accepted artifact compiles to %d edge classes unlike the generated model's %d", len(got.Classes()), len(want.Classes()))
		}
		for e := range int32(p.Graph.TransitionCount()) {
			if got.Class(e) != want.Class(e) {
				t.Fatalf("edge %d is in class %d of the accepted artifact, %d of the generated model", e, got.Class(e), want.Class(e))
			}
		}
	})
}

// TestFuzzCorpusCommitted checks the committed seed corpus stays in sync
// with the format: each file exists in go-fuzz v1 form and its input
// produces the outcome its name promises. Regenerate with
// MODELSTORE_REGEN_CORPUS=1 after a deliberate format change.
func TestFuzzCorpusCommitted(t *testing.T) {
	m := synth.Model(synth.ModelSpec{})
	dir := filepath.Join("testdata", "fuzz", "FuzzStoreDecode")
	seeds := corpusSeeds(t)
	if os.Getenv("MODELSTORE_REGEN_CORPUS") != "" {
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
	for name, want := range seeds {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("corpus entry %s missing (regenerate with MODELSTORE_REGEN_CORPUS=1): %v", name, err)
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
			t.Fatalf("corpus entry %s is stale; regenerate with MODELSTORE_REGEN_CORPUS=1", name)
		}
		_, decErr := modelstore.Decode([]byte(data), m)
		switch name {
		case "valid":
			if decErr != nil {
				t.Fatalf("valid corpus entry rejected: %v", decErr)
			}
		case "future-version":
			if !errors.Is(decErr, modelstore.ErrFutureVersion) {
				t.Fatalf("future-version corpus entry: %v, want ErrFutureVersion", decErr)
			}
		default:
			if decErr == nil {
				t.Fatalf("corrupt corpus entry %s accepted", name)
			}
		}
	}
}
