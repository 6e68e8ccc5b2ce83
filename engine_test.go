package privascope_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"privascope"
	"privascope/internal/accesscontrol"
	"privascope/internal/casestudy"
	"privascope/internal/casestudy/casestudytest"
	"privascope/internal/dataflow"
	"privascope/internal/modelstore"
	"privascope/internal/synth"
	"privascope/internal/testutil"
)

func newTestEngine(t *testing.T) *privascope.Engine {
	t.Helper()
	engine, err := privascope.NewEngine(privascope.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return engine
}

// TestEngineAssessCachedSkipsGeneration: the generate-once guarantee for
// sequential callers — the instrumented generation counter stays at 1 across
// repeated Assess calls, including calls with a *different* Model pointer of
// identical content (fingerprint keying, not pointer keying).
func TestEngineAssessCachedSkipsGeneration(t *testing.T) {
	engine := newTestEngine(t)
	profile := casestudy.PatientProfile()

	first, err := engine.Assess(context.Background(), casestudy.Surgery(), profile)
	if err != nil {
		t.Fatal(err)
	}
	if got := engine.Generations(); got != 1 {
		t.Fatalf("generations after first Assess = %d, want 1", got)
	}

	// A fresh build of the same model: different pointer, same content.
	second, err := engine.Assess(context.Background(), casestudy.Surgery(), profile)
	if err != nil {
		t.Fatal(err)
	}
	if got := engine.Generations(); got != 1 {
		t.Fatalf("generations after cached Assess = %d, want 1 (generation not skipped)", got)
	}
	if first.PrivacyModel != second.PrivacyModel {
		t.Error("cached Assess did not share the generated privacy model")
	}
	if first.Assessment.OverallRisk != second.Assessment.OverallRisk {
		t.Error("cached Assess changed the assessment outcome")
	}
	if hits, misses := engine.ModelCacheStats(); hits != 1 || misses != 1 {
		t.Errorf("model cache hits/misses = %d/%d, want 1/1", hits, misses)
	}
	// Same profile shape twice => one risk analysis.
	if hits, misses := engine.AssessmentCacheStats(); hits != 1 || misses != 1 {
		t.Errorf("assessment cache hits/misses = %d/%d, want 1/1", hits, misses)
	}
}

// TestEngineConcurrentAssessSingleGeneration: concurrent first requests for
// the same model block on exactly one generation (singleflight), and all of
// them receive the same generated model.
func TestEngineConcurrentAssessSingleGeneration(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	engine := newTestEngine(t)
	profile := casestudy.PatientProfile()

	const callers = 16
	results := make([]*privascope.AssessResult, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Every caller builds its own Model value: only content, not
			// pointer identity, may drive the cache.
			results[i], errs[i] = engine.Assess(context.Background(), casestudy.Surgery(), profile)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if got := engine.Generations(); got != 1 {
		t.Fatalf("concurrent Assess ran %d generations, want exactly 1", got)
	}
	for i := 1; i < callers; i++ {
		if results[i].PrivacyModel != results[0].PrivacyModel {
			t.Fatalf("caller %d received a different generated model", i)
		}
	}
}

// TestEngineDistinctModelsDistinctEntries: different models neither share a
// cache entry nor block each other's generation.
func TestEngineDistinctModelsDistinctEntries(t *testing.T) {
	engine := newTestEngine(t)
	ctx := context.Background()

	surgery, err := engine.Model(ctx, casestudy.Surgery())
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := engine.Model(ctx, casestudytest.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	if surgery == metrics {
		t.Fatal("distinct models shared one cache entry")
	}
	if got := engine.Generations(); got != 2 {
		t.Fatalf("generations = %d, want 2", got)
	}
	if got := engine.CachedModels(); got != 2 {
		t.Fatalf("cached models = %d, want 2", got)
	}
	// The mitigated surgery variant differs only in its ACL — it must still
	// get its own entry.
	if _, err := engine.Model(ctx, casestudy.SurgeryWithPolicy(casestudytest.MitigatedSurgeryACL())); err != nil {
		t.Fatal(err)
	}
	if got := engine.CachedModels(); got != 3 {
		t.Fatalf("cached models after policy-only variant = %d, want 3", got)
	}
}

// TestModelFingerprintDistinguishesSemanticDifferences: every pair of
// semantically different models must fingerprint differently, while
// identical content always fingerprints identically.
func TestModelFingerprintDistinguishesSemanticDifferences(t *testing.T) {
	base := casestudy.Surgery()

	fp := func(m *privascope.Model) string {
		t.Helper()
		s, err := privascope.ModelFingerprint(m)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	// Determinism: two independent builds of the same content agree.
	if fp(base) != fp(casestudy.Surgery()) {
		t.Fatal("identical models fingerprint differently")
	}

	variants := map[string]*privascope.Model{
		"policy-change": casestudy.SurgeryWithPolicy(casestudytest.MitigatedSurgeryACL()),
		"no-policy":     casestudy.SurgeryWithPolicy(nil),
		"other-model":   casestudytest.Metrics(),
		"renamed": func() *privascope.Model {
			m := *base
			m.Name = "renamed-clinic"
			return &m
		}(),
		"extra-actor": func() *privascope.Model {
			m := *base
			m.Actors = append(append([]privascope.Actor(nil), base.Actors...),
				privascope.Actor{ID: "auditor", Name: "Auditor"})
			return &m
		}(),
		"flow-order": func() *privascope.Model {
			m := *base
			flows := append([]privascope.Flow(nil), base.Flows...)
			flows[0], flows[1] = flows[1], flows[0]
			m.Flows = flows
			return &m
		}(),
		"synthetic": synth.Model(synth.ModelSpec{Services: 2, FieldsPerService: 2}),
	}
	seen := map[string]string{fp(base): "base"}
	for name, m := range variants {
		f := fp(m)
		if prev, dup := seen[f]; dup {
			t.Errorf("fingerprint collision between %q and %q", name, prev)
		}
		seen[f] = name
	}
}

// TestModelFingerprintRBACAndComposite: a policy written as RBAC, or as the
// concatenation of two grant lists, is fingerprinted as the ACL it is — role
// assignments change the fingerprint through the grants they expand to.
func TestModelFingerprintRBACAndComposite(t *testing.T) {
	read := []accesscontrol.Permission{accesscontrol.PermissionRead}
	all := []string{accesscontrol.AllFields}
	rbacWith := func(assign bool) *accesscontrol.ACL {
		rbac := accesscontrol.NewRBAC()
		if err := rbac.AddRole(accesscontrol.Role{Name: "clinician", Grants: []accesscontrol.Grant{{
			Datastore: casestudy.StoreAppointments, Fields: all, Permissions: read,
		}}}); err != nil {
			t.Fatal(err)
		}
		if assign {
			if err := rbac.Assign(casestudy.ActorDoctor, "clinician"); err != nil {
				t.Fatal(err)
			}
		}
		return rbac.ACL()
	}

	fp := func(p accesscontrol.Policy) string {
		t.Helper()
		s, err := privascope.ModelFingerprint(casestudy.SurgeryWithPolicy(p))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	assigned := fp(rbacWith(true))
	if fp(rbacWith(false)) == assigned {
		t.Error("RBAC role assignment did not change the fingerprint")
	}
	expanded := accesscontrol.MustACL(accesscontrol.Grant{Actor: casestudy.ActorDoctor,
		Datastore: casestudy.StoreAppointments, Fields: all, Permissions: read, Reason: `role "clinician"`})
	if fp(expanded) != assigned {
		t.Error("an RBAC-built ACL fingerprints differently from the same grants written directly")
	}
	concatenated := accesscontrol.MustACL(append(rbacWith(true).Grants(), casestudy.SurgeryACL().Grants()...)...)
	if fp(concatenated) == assigned {
		t.Error("concatenating a second grant list did not change the fingerprint")
	}
}

// TestCacheDirKeepsGenerationOptionsApart: engines that share a CacheDir but
// generate with different FlowOrdering or PotentialReads values each get the
// model their options generate, never another engine's artifact. The zero
// value and the explicit defaults share one artifact, and so do options that
// differ only in how generation runs.
func TestCacheDirKeepsGenerationOptionsApart(t *testing.T) {
	ctx, m := context.Background(), casestudy.Surgery()
	dir := t.TempDir()
	if _, err := privascope.MustEngine(privascope.EngineOptions{CacheDir: dir}).Model(ctx, m); err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string]privascope.GenerateOptions{
		"data-driven": {FlowOrdering: privascope.OrderDataDriven},
		"reads-off":   {PotentialReads: privascope.PotentialReadsOff},
		"reads-full":  {PotentialReads: privascope.PotentialReadsFull},
	} {
		t.Run(name, func(t *testing.T) {
			fresh, err := privascope.GenerateWithOptions(m, opts)
			if err != nil {
				t.Fatal(err)
			}
			for i, want := range []int64{0, 1} {
				engine := privascope.MustEngine(privascope.EngineOptions{Generate: opts, CacheDir: dir})
				got, err := engine.Model(ctx, m)
				if err != nil {
					t.Fatal(err)
				}
				if g, w := got.Stats(), fresh.Stats(); g.States != w.States || g.Transitions != w.Transitions {
					t.Fatalf("engine %d over the shared CacheDir has %d states and %d transitions, fresh generation %d and %d",
						i, g.States, g.Transitions, w.States, w.Transitions)
				}
				if engine.Loads() != want {
					t.Fatalf("engine %d loaded %d models, want %d", i, engine.Loads(), want)
				}
			}
		})
	}
	for name, opts := range map[string]privascope.GenerateOptions{
		"explicit defaults": {FlowOrdering: privascope.OrderSequential, PotentialReads: privascope.PotentialReadsTerminal},
		"run knobs":         {Workers: 1, MaxStates: 1000, Explore: privascope.ExploreOptions{Symmetry: true}},
	} {
		engine := privascope.MustEngine(privascope.EngineOptions{Generate: opts, CacheDir: dir})
		if _, err := engine.Model(ctx, m); err != nil {
			t.Fatal(err)
		}
		if engine.Loads() != 1 || engine.Generations() != 0 {
			t.Errorf("%s: loaded %d and generated %d, want the default artifact loaded", name, engine.Loads(), engine.Generations())
		}
	}
}

// TestEngineOverwritesFormerFormatArtifact: a registry file in an earlier
// artifact format is a cache miss, not an error. The engine regenerates the
// model and overwrites the file in the current format, which the next
// engine loads without generating.
func TestEngineOverwritesFormerFormatArtifact(t *testing.T) {
	for version := 1; version < modelstore.FormatVersion; version++ {
		t.Run(fmt.Sprint("v", version), func(t *testing.T) {
			file := fmt.Sprintf("surgery-v%d.artifact", version)
			former, err := os.ReadFile(filepath.Join("internal", "modelstore", "testdata", file))
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			store, err := modelstore.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			fp, err := dataflow.Fingerprint(casestudy.Surgery())
			if err != nil {
				t.Fatal(err)
			}
			path, err := store.Path(fp)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, former, 0o644); err != nil {
				t.Fatal(err)
			}

			ctx, profile := context.Background(), casestudy.PatientProfile()
			first := privascope.MustEngine(privascope.EngineOptions{CacheDir: dir})
			want, err := first.Assess(ctx, casestudy.Surgery(), profile)
			if err != nil {
				t.Fatal(err)
			}
			if g, l := first.Generations(), first.Loads(); g != 1 || l != 0 {
				t.Fatalf("over a version-%d artifact the engine generated %d and loaded %d, want 1 and 0", version, g, l)
			}
			rewritten, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if v := binary.LittleEndian.Uint32(rewritten[8:]); v != modelstore.FormatVersion {
				t.Fatalf("the registry file is version %d after regeneration, want %d", v, modelstore.FormatVersion)
			}

			next := privascope.MustEngine(privascope.EngineOptions{CacheDir: dir})
			got, err := next.Assess(ctx, casestudy.Surgery(), profile)
			if err != nil {
				t.Fatal(err)
			}
			if g, l := next.Generations(), next.Loads(); g != 0 || l != 1 {
				t.Fatalf("over the rewritten artifact the engine generated %d and loaded %d, want 0 and 1", g, l)
			}
			if got.Report.Render() != want.Report.Render() {
				t.Fatalf("the loaded model reports differently from the generated one")
			}
		})
	}
}

// TestEngineAssessCancelledNotCached: a cancelled generation returns
// ctx.Err(), is not cached, and does not prevent a later caller from
// generating successfully.
func TestEngineAssessCancelledNotCached(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	engine, err := privascope.NewEngine(privascope.EngineOptions{
		Generate: privascope.GenerateOptions{Workers: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	// 90,625 states: generation must still be running when the timer below
	// fires (the 15,625-state model now finishes inside 10 ms on four workers).
	model := synth.Model(synth.ModelSpec{Services: 6, FieldsPerService: 2})
	profile := privascope.UserProfile{ID: "u", DefaultSensitivity: 0.5}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if _, err := engine.Assess(ctx, model, profile); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := engine.CachedModels(); got != 0 {
		t.Fatalf("cancelled generation left %d cache entries, want 0", got)
	}

	// A later caller with a live context generates for real.
	if _, err := engine.Assess(context.Background(), model, profile); err != nil {
		t.Fatalf("Assess after cancelled generation: %v", err)
	}
	if got := engine.Generations(); got < 2 {
		t.Fatalf("generations = %d, want at least 2 (cancelled + successful)", got)
	}
}

// TestEngineMonitor: the engine wires its cached model and shared assessment
// cache into runtime monitors.
func TestEngineMonitor(t *testing.T) {
	engine := newTestEngine(t)
	monitor, err := engine.Monitor(context.Background(), casestudy.Surgery(), privascope.MonitorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := monitor.RegisterUser(casestudy.PatientProfile()); err != nil {
		t.Fatal(err)
	}
	if got := engine.Generations(); got != 1 {
		t.Fatalf("generations = %d, want 1", got)
	}
	// A second monitor for the same model reuses the cached LTS.
	if _, err := engine.Monitor(context.Background(), casestudy.Surgery(), privascope.MonitorConfig{}); err != nil {
		t.Fatal(err)
	}
	if got := engine.Generations(); got != 1 {
		t.Fatalf("generations after second monitor = %d, want 1", got)
	}
}

// TestEngineMonitorsShareAssessments: two monitors of one engine analyse a
// shape once between them — the second monitor's registration of a shape the
// first registered is a hit on the engine's assessment cache.
func TestEngineMonitorsShareAssessments(t *testing.T) {
	engine := newTestEngine(t)
	ctx := context.Background()
	for i := range 2 {
		monitor, err := engine.Monitor(ctx, casestudy.Surgery(), privascope.MonitorConfig{})
		if err != nil {
			t.Fatal(err)
		}
		profile := casestudy.PatientProfile()
		profile.ID = fmt.Sprintf("patient-%d", i)
		if err := monitor.RegisterUser(profile); err != nil {
			t.Fatal(err)
		}
		if hits, misses := engine.AssessmentCacheStats(); hits != int64(i) || misses != 1 {
			t.Fatalf("after monitor %d registered the shape: hits=%d misses=%d, want %d/1", i, hits, misses, i)
		}
	}
}

// TestEngineAssessPopulation: a population scan analyses each distinct shape
// of its population once, and touches no cache — a single-user Assess of the
// same shape afterwards is the engine's assessment cache's first and only
// miss.
func TestEngineAssessPopulation(t *testing.T) {
	engine := newTestEngine(t)
	model := casestudy.Surgery()
	profiles := []privascope.UserProfile{
		casestudy.PatientProfile(),
		func() privascope.UserProfile {
			p := casestudy.PatientProfile()
			p.ID = "patient-2" // same shape, different user
			return p
		}(),
	}
	pop, err := engine.AssessPopulation(context.Background(), model, profiles)
	if err != nil {
		t.Fatal(err)
	}
	if len(pop.Users) != 2 {
		t.Fatalf("population users = %d, want 2", len(pop.Users))
	}
	if pop.DistinctShapes != 1 {
		t.Fatalf("distinct shapes = %d, want 1 (same-shaped users share one analysis)", pop.DistinctShapes)
	}
	if hits, misses := engine.AssessmentCacheStats(); hits != 0 || misses != 0 {
		t.Fatalf("after the scan: assessment cache hits=%d misses=%d, want 0/0", hits, misses)
	}
	// The scan filled no cache entry, so a follow-up single-user Assess of the
	// same shape computes it.
	if _, err := engine.Assess(context.Background(), model, profiles[0]); err != nil {
		t.Fatal(err)
	}
	if _, misses := engine.AssessmentCacheStats(); misses != 1 {
		t.Fatalf("assessment cache misses = %d, want 1", misses)
	}
}

// TestAssessContextSourceCompatibility: the context-free facade keeps
// working exactly as before, proving source compatibility of existing code.
func TestAssessContextSourceCompatibility(t *testing.T) {
	result, err := privascope.Assess(casestudy.Surgery(), casestudy.PatientProfile())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(result.Report.Render(), "Privacy risk assessment") {
		t.Error("report missing title")
	}
}
