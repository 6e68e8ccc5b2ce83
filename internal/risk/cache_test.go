package risk_test

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"privascope/internal/casestudy"
	"privascope/internal/core"
	"privascope/internal/risk"
)

func surgeryLTS(t *testing.T) *core.PrivacyLTS {
	t.Helper()
	p, err := core.Generate(casestudy.Surgery())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return p
}

func TestFingerprintIgnoresIDAndOrdering(t *testing.T) {
	a := risk.UserProfile{ID: "alice", ConsentedServices: []string{"s1", "s2"},
		Sensitivities: map[string]float64{"x": 0.5, "y": 0.9}, DefaultSensitivity: 0.25}
	b := risk.UserProfile{ID: "bob", ConsentedServices: []string{"s2", "s1"},
		Sensitivities: map[string]float64{"y": 0.9, "x": 0.5}, DefaultSensitivity: 0.25}
	if a.Fingerprint() != b.Fingerprint() {
		t.Errorf("fingerprints differ for same-shaped profiles:\n%q\n%q", a.Fingerprint(), b.Fingerprint())
	}
	// Any shape component changing must change the fingerprint.
	variants := []risk.UserProfile{
		{ID: "alice", ConsentedServices: []string{"s1"}, Sensitivities: a.Sensitivities, DefaultSensitivity: 0.25},
		{ID: "alice", ConsentedServices: a.ConsentedServices, Sensitivities: map[string]float64{"x": 0.5}, DefaultSensitivity: 0.25},
		{ID: "alice", ConsentedServices: a.ConsentedServices, Sensitivities: a.Sensitivities, DefaultSensitivity: 0.3},
		{ID: "alice", ConsentedServices: a.ConsentedServices,
			Sensitivities: map[string]float64{"x": 0.5, "y": 0.91}, DefaultSensitivity: 0.25},
	}
	for i, v := range variants {
		if v.Fingerprint() == a.Fingerprint() {
			t.Errorf("variant %d has the same fingerprint as the base profile", i)
		}
	}
}

func TestAssessmentCacheHitAndMiss(t *testing.T) {
	p := surgeryLTS(t)
	cache, err := risk.NewAssessmentCache(nil)
	if err != nil {
		t.Fatal(err)
	}

	first := casestudy.PatientProfile()
	a1, err := cache.AnalyzeContext(context.Background(), p, first)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := cache.Hits(), cache.Misses(); hits != 0 || misses != 1 {
		t.Errorf("after first analysis: hits=%d misses=%d, want 0/1", hits, misses)
	}

	// Same shape, different user: a hit sharing the findings slice, carrying
	// the caller's profile.
	second := casestudy.PatientProfile()
	second.ID = "patient-2"
	a2, err := cache.AnalyzeContext(context.Background(), p, second)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := cache.Hits(), cache.Misses(); hits != 1 || misses != 1 {
		t.Errorf("after cache hit: hits=%d misses=%d, want 1/1", hits, misses)
	}
	if a2.Profile.ID != "patient-2" {
		t.Errorf("cached assessment carries profile %q, want the caller's", a2.Profile.ID)
	}
	if len(a1.Findings) == 0 || &a1.Findings[0] != &a2.Findings[0] {
		t.Error("same-shaped users should share one findings slice")
	}
	if !reflect.DeepEqual(a1.OverallRisk, a2.OverallRisk) {
		t.Error("shared assessments disagree on overall risk")
	}

	// A different shape misses.
	insensitive := casestudy.PatientProfile()
	insensitive.ID = "patient-3"
	insensitive.DefaultSensitivity = 0
	insensitive.Sensitivities = nil
	if _, err := cache.AnalyzeContext(context.Background(), p, insensitive); err != nil {
		t.Fatal(err)
	}
	if hits, misses := cache.Hits(), cache.Misses(); hits != 1 || misses != 2 {
		t.Errorf("after new shape: hits=%d misses=%d, want 1/2", hits, misses)
	}

	// The same shape against a different model instance misses: the cache is
	// keyed by model identity, not shape alone.
	other := surgeryLTS(t)
	if _, err := cache.AnalyzeContext(context.Background(), other, first); err != nil {
		t.Fatal(err)
	}
	if hits, misses := cache.Hits(), cache.Misses(); hits != 1 || misses != 3 {
		t.Errorf("after second model: hits=%d misses=%d, want 1/3", hits, misses)
	}
	if cache.Size() != 3 {
		t.Errorf("Size() = %d, want 3", cache.Size())
	}
}

func TestAssessmentCacheSharedResultMatchesDirectAnalysis(t *testing.T) {
	p := surgeryLTS(t)
	cache, err := risk.NewAssessmentCache(nil)
	if err != nil {
		t.Fatal(err)
	}
	profile := casestudy.PatientProfile()
	if _, err := cache.AnalyzeContext(context.Background(), p, profile); err != nil {
		t.Fatal(err)
	}
	profile2 := casestudy.PatientProfile()
	profile2.ID = "patient-2"
	cached, err := cache.AnalyzeContext(context.Background(), p, profile2)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := cache.Analyzer().AnalyzeContext(context.Background(), p, profile2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cached.Findings, direct.Findings) {
		t.Error("cached findings differ from a direct analysis of the same profile")
	}
	if cached.OverallRisk != direct.OverallRisk ||
		!reflect.DeepEqual(cached.AllowedActors, direct.AllowedActors) ||
		!reflect.DeepEqual(cached.NonAllowedActors, direct.NonAllowedActors) {
		t.Error("cached assessment metadata differs from a direct analysis")
	}
}

func TestAssessmentCacheErrorsNotCached(t *testing.T) {
	p := surgeryLTS(t)
	cache, err := risk.NewAssessmentCache(nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := risk.UserProfile{ID: "u", ConsentedServices: []string{"no-such-service"}}
	if _, err := cache.AnalyzeContext(context.Background(), p, bad); err == nil {
		t.Fatal("unknown consented service accepted")
	}
	// Failed analyses are forgotten (so one caller's cancellation can never
	// poison the cache): a same-shaped retry recomputes and fails again.
	bad.ID = "v"
	if _, err := cache.AnalyzeContext(context.Background(), p, bad); err == nil {
		t.Fatal("error not returned for same-shaped profile")
	}
	if cache.Size() != 0 {
		t.Errorf("failed analysis left %d cache entries, want 0", cache.Size())
	}
	if hits, misses := cache.Hits(), cache.Misses(); hits != 0 || misses != 2 {
		t.Errorf("error path: hits=%d misses=%d, want 0/2", hits, misses)
	}
}

func TestAssessmentCacheConcurrentSingleComputation(t *testing.T) {
	p := surgeryLTS(t)
	cache, err := risk.NewAssessmentCache(nil)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 32
	var wg sync.WaitGroup
	results := make([]*risk.Assessment, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			profile := casestudy.PatientProfile()
			a, err := cache.AnalyzeContext(context.Background(), p, profile)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = a
		}(i)
	}
	wg.Wait()
	if cache.Misses() != 1 {
		t.Errorf("concurrent analyses computed %d times, want 1", cache.Misses())
	}
	if cache.Hits() != goroutines-1 {
		t.Errorf("hits = %d, want %d", cache.Hits(), goroutines-1)
	}
	for i := 1; i < goroutines; i++ {
		if results[i] == nil || len(results[i].Findings) != len(results[0].Findings) {
			t.Fatalf("goroutine %d saw a different assessment", i)
		}
	}
}

func TestNewAssessmentCacheDefaultAnalyzer(t *testing.T) {
	cache, err := risk.NewAssessmentCache(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Analyzer() == nil {
		t.Error("default analyzer missing")
	}
}
