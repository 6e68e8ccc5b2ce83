package modelstore_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"privascope/internal/core"
	"privascope/internal/dataflow"
	"privascope/internal/modelstore"
	"privascope/internal/proptest"
	"privascope/internal/proptest/scenario"
	"privascope/internal/risk"
	"privascope/internal/synth"
	"privascope/internal/testutil"
)

// fixtureModel returns a deterministic mid-size model and its generated
// privacy LTS.
func fixtureModel(t testing.TB) (*dataflow.Model, *core.PrivacyLTS) {
	t.Helper()
	m := synth.Model(synth.ModelSpec{})
	p, err := core.Generate(m)
	if err != nil {
		t.Fatalf("generate fixture: %v", err)
	}
	return m, p
}

// requireSameModel asserts the decoded model is byte-identical to the
// generated one on every externally observable surface: JSON document, graph
// rendering, stats, and a full risk assessment.
func requireSameModel(t testing.TB, want, got *core.PrivacyLTS, profile risk.UserProfile) {
	t.Helper()
	wantJSON, err := want.MarshalJSON()
	if err != nil {
		t.Fatalf("marshal generated model: %v", err)
	}
	gotJSON, err := got.MarshalJSON()
	if err != nil {
		t.Fatalf("marshal decoded model: %v", err)
	}
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Fatalf("decoded model JSON differs from generated")
	}
	if want.Graph.String() != got.Graph.String() {
		t.Fatalf("decoded graph renders differently")
	}
	if want.Stats() != got.Stats() {
		t.Fatalf("decoded stats %+v, want %+v", got.Stats(), want.Stats())
	}
	analyzer, err := risk.NewAnalyzer(risk.Config{})
	if err != nil {
		t.Fatalf("new analyzer: %v", err)
	}
	wantAssess, err := analyzer.Analyze(want, profile)
	if err != nil {
		t.Fatalf("analyze generated model: %v", err)
	}
	gotAssess, err := analyzer.Analyze(got, profile)
	if err != nil {
		t.Fatalf("analyze decoded model: %v", err)
	}
	if !reflect.DeepEqual(wantAssess, gotAssess) {
		t.Fatalf("assessment of decoded model differs from generated")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m, p := fixtureModel(t)
	data, err := modelstore.Encode(p)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	again, err := modelstore.Encode(p)
	if err != nil {
		t.Fatalf("re-Encode: %v", err)
	}
	if !bytes.Equal(data, again) {
		t.Fatalf("encoding is not deterministic")
	}

	decoded, err := modelstore.Decode(data, m)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	requireSameModel(t, p, decoded, synth.Population(m, synth.PopulationOptions{})[0])

	// Re-encoding the decoded model must reproduce the artifact bit for bit:
	// the codec loses nothing the codec itself observes.
	reencoded, err := modelstore.Encode(decoded)
	if err != nil {
		t.Fatalf("Encode decoded model: %v", err)
	}
	if !bytes.Equal(data, reencoded) {
		t.Fatalf("re-encoded artifact differs from the original")
	}

	fp, err := modelstore.Fingerprint(data)
	if err != nil {
		t.Fatalf("Fingerprint: %v", err)
	}
	wantFP, _ := dataflow.Fingerprint(m)
	if fp != wantFP {
		t.Fatalf("artifact fingerprint %s, model fingerprint %s", fp, wantFP)
	}

	// A different model must be refused even though the artifact is intact.
	other := synth.Model(synth.ModelSpec{Services: 3})
	if _, err := modelstore.Decode(data, other); err == nil {
		t.Fatalf("Decode accepted an artifact from a different model")
	}
}

// distinctStoreMaps counts the store-content maps the model's states hold, by
// identity: states sharing one map count once, as do all states holding none.
func distinctStoreMaps(p *core.PrivacyLTS) int {
	seen := make(map[uintptr]bool)
	for _, id := range p.States() {
		seen[reflect.ValueOf(p.StoreMap(id)).Pointer()] = true
	}
	return len(seen)
}

// TestDecodeBuildsTheGeneratedShape: a decoded model is the object generation
// builds, not a heavier copy — states share store-content maps exactly as
// generated states do, decoding allocates no more than the same order of
// objects as generating (it was ~15x), and the graph is born compiled. Run on
// the benchmark's "large" model (15,625 states).
func TestDecodeBuildsTheGeneratedShape(t *testing.T) {
	m := synth.Model(synth.ModelSpec{Services: 5, FieldsPerService: 3})
	p, err := core.Generate(m)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	if n := p.Graph.StateCount(); n < 10000 {
		t.Fatalf("model has %d states, want at least 10000", n)
	}
	data, err := modelstore.Encode(p)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	decode := func() *core.PrivacyLTS {
		d, err := modelstore.Decode(data, m)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		return d
	}

	if got, want := distinctStoreMaps(decode()), distinctStoreMaps(p); got != want || want >= p.Graph.StateCount()/10 {
		t.Errorf("decoded states hold %d distinct store maps, generated states %d (of %d states)", got, want, p.Graph.StateCount())
	}

	generateAllocs := testing.AllocsPerRun(3, func() {
		if _, err := core.Generate(m); err != nil {
			t.Fatalf("generate: %v", err)
		}
	})
	decodeAllocs := testing.AllocsPerRun(3, func() { decode() })
	t.Logf("allocations: generate %.0f, decode %.0f", generateAllocs, decodeAllocs)
	if decodeAllocs > 2*generateAllocs {
		t.Errorf("Decode allocates %.0f objects, more than twice Generate's %.0f", decodeAllocs, generateAllocs)
	}

	if allocs := testutil.AllocsOnFresh(decode, func(d *core.PrivacyLTS) { d.Graph.Compiled() }); allocs != 0 {
		t.Errorf("first Graph.Compiled() of a decoded model allocated %v objects; the graph was not born compiled", allocs)
	}
}

func TestStoreSaveLoad(t *testing.T) {
	m, p := fixtureModel(t)
	store, err := modelstore.Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	fp, err := dataflow.Fingerprint(m)
	if err != nil {
		t.Fatalf("fingerprint: %v", err)
	}
	if store.Has(fp) {
		t.Fatalf("empty store claims to have %s", fp)
	}
	if _, err := store.Load(fp, m); !errors.Is(err, modelstore.ErrNotFound) {
		t.Fatalf("Load on empty store: %v, want ErrNotFound", err)
	}
	if err := store.Save(fp, p); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if !store.Has(fp) {
		t.Fatalf("store does not see the saved artifact")
	}
	loaded, err := store.Load(fp, m)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	requireSameModel(t, p, loaded, synth.Population(m, synth.PopulationOptions{})[0])

	// Path traversal guard: a crafted fingerprint never escapes the registry.
	for _, bad := range []string{"", "../evil", "ABC", "a/b", "a.b"} {
		if _, err := store.Path(bad); err == nil {
			t.Errorf("Path(%q) accepted a non-hex fingerprint", bad)
		}
	}
}

// TestLoadedModelOutlivesItsArtifact: a loaded model holds no reference to the
// file it came from. Store.Load used to alias the model's flat sections into a
// never-unmapped private mapping of the artifact, so shrinking the file under
// a running process raised SIGBUS on the next state-vector read, and rewriting
// it in place changed the model.
func TestLoadedModelOutlivesItsArtifact(t *testing.T) {
	m, p := fixtureModel(t)
	profile := synth.Population(m, synth.PopulationOptions{})[0]
	fp, err := dataflow.Fingerprint(m)
	if err != nil {
		t.Fatalf("fingerprint: %v", err)
	}
	load := func(t *testing.T) (*modelstore.Store, string, *core.PrivacyLTS) {
		store, err := modelstore.Open(t.TempDir())
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if err := store.Save(fp, p); err != nil {
			t.Fatalf("Save: %v", err)
		}
		path, err := store.Path(fp)
		if err != nil {
			t.Fatalf("Path: %v", err)
		}
		loaded, err := store.Load(fp, m)
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		return store, path, loaded
	}

	t.Run("truncated", func(t *testing.T) {
		_, path, loaded := load(t)
		if err := os.Truncate(path, 0); err != nil {
			t.Fatalf("truncate: %v", err)
		}
		requireSameModel(t, p, loaded, profile)
	})

	t.Run("overwritten in place then pruned", func(t *testing.T) {
		store, path, loaded := load(t)
		info, err := os.Stat(path)
		if err != nil {
			t.Fatalf("stat: %v", err)
		}
		// Same inode, every byte changed: anything still reading the file
		// through a mapping sees 0xFF where its indexes and vectors were.
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			t.Fatalf("open for overwrite: %v", err)
		}
		_, err = f.Write(bytes.Repeat([]byte{0xFF}, int(info.Size())))
		if cerr := f.Close(); err != nil || cerr != nil {
			t.Fatalf("overwrite: %v, close: %v", err, cerr)
		}
		if removed, err := store.Prune(0); err != nil || removed != 1 {
			t.Fatalf("Prune(0) = %d, %v; want 1, nil", removed, err)
		}
		requireSameModel(t, p, loaded, profile)
	})
}

// TestPropModelStoreRoundTrip is the catalog property: on random synth
// models, store→load→assess is byte-identical to generate→assess, via both
// Decode on a caller's buffer and the registry's Load.
func TestPropModelStoreRoundTrip(t *testing.T) {
	store, err := modelstore.Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	proptest.Run(t, func(seed int64, rng *rand.Rand) error {
		s := scenario.Draw(seed)
		p, err := s.Generate()
		if err != nil {
			return err
		}
		fp, err := dataflow.Fingerprint(s.Model)
		if err != nil {
			return err
		}
		data, err := modelstore.Encode(p)
		if err != nil {
			return err
		}
		decoded, err := modelstore.Decode(data, s.Model)
		if err != nil {
			return err
		}
		requireSameModel(t, p, decoded, s.Profiles[0])

		if err := store.Save(fp, p); err != nil {
			return err
		}
		loaded, err := store.Load(fp, s.Model)
		if err != nil {
			return err
		}
		requireSameModel(t, p, loaded, s.Profiles[0])
		return nil
	})
}

// TestPropEncodeWorkerCountIndependence: the compiled artifact is a function
// of the model alone. Workers build potential-read labels independently, so
// the bytes stay equal across worker counts only while generation
// canonicalises labels by value before the encoder interns them by pointer.
func TestPropEncodeWorkerCountIndependence(t *testing.T) {
	proptest.Run(t, func(seed int64, rng *rand.Rand) error {
		s := scenario.Draw(seed)
		opts := s.Opts
		// Only potential-read labels are built per worker; draw which kind.
		opts.PotentialReads = []core.PotentialReadMode{
			core.PotentialReadsTerminal, core.PotentialReadsFull}[rng.Intn(2)]
		var want []byte
		for _, workers := range []int{1, 2, 4, 8} {
			opts.Workers = workers
			p, err := core.GenerateWithOptions(s.Model, opts)
			if err != nil {
				return err
			}
			data, err := modelstore.Encode(p)
			if err != nil {
				return err
			}
			if want == nil {
				want = data
			} else if !bytes.Equal(data, want) {
				return fmt.Errorf("Workers=%d: artifact of %d bytes differs from the %d bytes of Workers=1",
					workers, len(data), len(want))
			}
		}
		return nil
	})
}

// rechecksum re-seals an artifact after a deliberate deep mutation, so the
// decoder's structural validation — not just the checksum — is what rejects
// it.
func rechecksum(t *testing.T, data []byte) []byte {
	t.Helper()
	resealed, err := modelstore.Reseal(data)
	if err != nil {
		t.Fatalf("reseal: %v", err)
	}
	return resealed
}

func TestDecodeRejectsCorruptArtifacts(t *testing.T) {
	m, p := fixtureModel(t)
	valid, err := modelstore.Encode(p)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}

	// Any single flipped bit anywhere in the artifact must be rejected (the
	// checksum guarantees it), and must never panic.
	step := len(valid)/257 + 1
	for off := 0; off < len(valid); off += step {
		data := append([]byte(nil), valid...)
		data[off] ^= 0x40
		if _, err := modelstore.Decode(data, m); err == nil {
			t.Fatalf("flipped byte at %d accepted", off)
		}
	}

	// Truncations at every boundary class.
	for _, n := range []int{0, 7, 8, 40, 63, 64, 200, len(valid) / 2, len(valid) - 1} {
		if n >= len(valid) {
			continue
		}
		if _, err := modelstore.Decode(valid[:n], m); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}

	// A version from the future is refused with the dedicated error.
	future := append([]byte(nil), valid...)
	future[8] = 0xFF
	if _, err := modelstore.Decode(rechecksum(t, future), m); !errors.Is(err, modelstore.ErrFutureVersion) {
		t.Fatalf("future version: %v, want ErrFutureVersion", err)
	}

	// Checksum-valid but structurally dishonest artifacts: mutate deep fields
	// and re-seal. Every one must fail structural validation.
	deep := map[string]func([]byte){
		"zeroed section table": func(d []byte) {
			for i := 64; i < 64+9*24; i++ {
				d[i] = 0
			}
		},
		"inflated state count": func(d []byte) {
			d[280]++ // meta section starts at 280; first word is numStates
		},
		"first payload word corrupted": func(d []byte) {
			d[288] ^= 0x11
		},
	}
	for name, mutate := range deep {
		data := append([]byte(nil), valid...)
		mutate(data)
		if _, err := modelstore.Decode(rechecksum(t, data), m); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestModelStoreConcurrentSaveLoad hammers one registry entry from writer and
// reader goroutines, under the race detector too. Readers must only ever see
// a complete artifact or a clean miss.
func TestModelStoreConcurrentSaveLoad(t *testing.T) {
	m, p := fixtureModel(t)
	store, err := modelstore.Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	fp, err := dataflow.Fingerprint(m)
	if err != nil {
		t.Fatalf("fingerprint: %v", err)
	}
	const writers, readers, iters = 2, 4, 25
	var wg sync.WaitGroup
	errc := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if err := store.Save(fp, p); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				loaded, err := store.Load(fp, m)
				if errors.Is(err, modelstore.ErrNotFound) {
					continue
				}
				if err != nil {
					errc <- err
					return
				}
				if loaded.Stats() != p.Stats() {
					errc <- errors.New("loaded model has different stats")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatalf("concurrent save/load: %v", err)
	}
}

// TestModelStoreCrossProcessRename proves the atomic-rename contract across
// process boundaries: a child process rewrites the artifact in a tight loop
// while this process loads it; no load may ever observe a torn file.
func TestModelStoreCrossProcessRename(t *testing.T) {
	m, p := fixtureModel(t)
	fp, err := dataflow.Fingerprint(m)
	if err != nil {
		t.Fatalf("fingerprint: %v", err)
	}

	if dir := os.Getenv("PRIVASCOPE_STORE_WRITER_DIR"); dir != "" {
		// Child mode: rewrite the artifact as fast as possible for ~1s.
		store, err := modelstore.Open(dir)
		if err != nil {
			os.Exit(2)
		}
		deadline := time.Now().Add(time.Second)
		for time.Now().Before(deadline) {
			if err := store.Save(fp, p); err != nil {
				os.Exit(3)
			}
		}
		os.Exit(0)
	}

	if testing.Short() {
		t.Skip("cross-process test skipped in -short mode")
	}
	dir := t.TempDir()
	store, err := modelstore.Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	cmd := exec.Command(os.Args[0], "-test.run", "^TestModelStoreCrossProcessRename$", "-test.v=false")
	cmd.Env = append(os.Environ(), "PRIVASCOPE_STORE_WRITER_DIR="+dir)
	var out strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatalf("start writer process: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()

	loads := 0
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("writer process failed: %v\n%s", err, out.String())
			}
			if loads == 0 {
				t.Fatalf("reader never observed an artifact")
			}
			return
		default:
		}
		loaded, err := store.Load(fp, m)
		if errors.Is(err, modelstore.ErrNotFound) {
			continue // before the first install
		}
		if err != nil {
			t.Fatalf("load during concurrent rewrite: %v", err)
		}
		if loaded.Stats() != p.Stats() {
			t.Fatalf("load during concurrent rewrite returned a different model")
		}
		loads++
	}
}
