package runtime_test

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"privascope/internal/casestudy"
	"privascope/internal/core"
	"privascope/internal/runtime"
)

// TestMonitorConcurrentStress hammers one monitor with concurrent
// RegisterUser / Observe / Alerts / Users / CurrentVector calls (run under
// -race in CI). Each user's events are fed in order by a dedicated
// goroutine, so the per-user alert multiset is deterministic; the test
// asserts the full sorted alert set equals that of a second, identically
// driven monitor and holds one alert per user, i.e. concurrent callers never
// lose or duplicate an alert.
func TestMonitorConcurrentStress(t *testing.T) {
	p, err := core.Generate(casestudy.Surgery())
	if err != nil {
		t.Fatal(err)
	}
	const numUsers = 48
	users := make([]string, numUsers)
	for i := range users {
		users[i] = fmt.Sprintf("patient-%d", i)
	}

	run := func() []string {
		monitor, err := runtime.NewMonitor(p, runtime.Config{})
		if err != nil {
			t.Fatal(err)
		}

		// Phase 1: concurrent registration (the assessment cache and shape
		// index are exercised by racing same-shaped registrations).
		var wg sync.WaitGroup
		for _, id := range users {
			wg.Add(1)
			go func(id string) {
				defer wg.Done()
				profile := casestudy.PatientProfile()
				profile.ID = id
				if err := monitor.RegisterUser(profile); err != nil {
					t.Error(err)
				}
			}(id)
		}
		wg.Wait()
		// Concurrent first registrations of a brand-new shape may each miss
		// the index memo (the expensive analysis is still single-flighted by
		// the assessment cache), so only the total and "at least one miss,
		// not all misses" are deterministic here.
		hits, misses := monitor.AssessmentCacheStats()
		if hits+misses != numUsers || misses < 1 {
			t.Errorf("cache stats hits=%d misses=%d, want them to sum to %d with >=1 miss",
				hits, misses, numUsers)
		}

		// Phase 2: one goroutine per user replays that user's script while
		// readers poll the aggregate views concurrently.
		stop := make(chan struct{})
		var readers sync.WaitGroup
		for r := 0; r < 4; r++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				for {
					select {
					case <-stop:
						return
					default:
						_ = monitor.Alerts()
						_ = monitor.Users()
						_, _ = monitor.CurrentVector(users[0])
					}
				}
			}()
		}
		for i, id := range users {
			wg.Add(1)
			go func(i int, id string) {
				defer wg.Done()
				for _, ev := range medicalServiceEvents(id) {
					if _, err := monitor.Observe(ev); err != nil {
						t.Error(err)
					}
				}
				// Every third user triggers the risky administrator read; the
				// others probe unmodelled behaviour.
				extra := medicalServiceEvents(id)[0]
				if i%3 == 0 {
					extra.Actor = casestudy.ActorAdministrator
					extra.Action = core.ActionRead
					extra.Datastore = casestudy.StoreEHR
					extra.Fields = []string{casestudy.FieldDiagnosis}
				} else {
					extra.Actor = casestudy.ActorResearcher
					extra.Action = core.ActionRead
					extra.Datastore = casestudy.StoreEHR
					extra.Fields = []string{casestudy.FieldDiagnosis}
				}
				if _, err := monitor.Observe(extra); err != nil {
					t.Error(err)
				}
			}(i, id)
		}
		wg.Wait()
		close(stop)
		readers.Wait()

		if got := monitor.Users(); len(got) != numUsers {
			t.Errorf("Users() = %d users, want %d", len(got), numUsers)
		}
		summaries := alertSummaries(monitor.Alerts())
		sort.Strings(summaries)
		return summaries
	}

	baseline := run()
	if len(baseline) != numUsers {
		t.Fatalf("baseline alert count = %d, want %d (one per user)", len(baseline), numUsers)
	}
	if got := run(); !reflect.DeepEqual(got, baseline) {
		t.Error("sorted alert set differs between two identically driven monitors")
	}
}
