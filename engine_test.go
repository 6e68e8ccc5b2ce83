package privascope_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"privascope"
	"privascope/internal/accesscontrol"
	"privascope/internal/casestudy"
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
	metrics, err := engine.Model(ctx, casestudy.Metrics())
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
	if _, err := engine.Model(ctx, casestudy.SurgeryWithPolicy(casestudy.MitigatedSurgeryACL())); err != nil {
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
		"policy-change": casestudy.SurgeryWithPolicy(casestudy.MitigatedSurgeryACL()),
		"no-policy":     casestudy.SurgeryWithPolicy(nil),
		"other-model":   casestudy.Metrics(),
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

// TestEngineMonitor: the engine wires its cached model and shared analyzer
// into runtime monitors.
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

// TestEngineAssessPopulation: population scans share the engine's assessment
// cache with single-user calls.
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
	// The shared cache means a follow-up single-user Assess of the same
	// shape is a pure cache hit.
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
