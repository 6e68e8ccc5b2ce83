package runtime_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"privascope/internal/casestudy"
	"privascope/internal/core"
	"privascope/internal/runtime"
	"privascope/internal/service"
	"privascope/internal/testutil"
)

// cancelMonitor builds a monitor with many registered users.
func cancelMonitor(t *testing.T) (*runtime.Monitor, []string) {
	t.Helper()
	p, err := core.Generate(casestudy.Surgery())
	if err != nil {
		t.Fatal(err)
	}
	m, err := runtime.NewMonitor(p, runtime.Config{})
	if err != nil {
		t.Fatal(err)
	}
	base := casestudy.PatientProfile()
	var users []string
	for i := 0; i < 32; i++ {
		profile := base
		profile.ID = fmt.Sprintf("user-%d", i)
		if err := m.RegisterUser(profile); err != nil {
			t.Fatal(err)
		}
		users = append(users, profile.ID)
	}
	return m, users
}

func TestObserveBatchContextPreCancelled(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	m, users := cancelMonitor(t)
	var events []service.Event
	for _, u := range users {
		events = append(events, casestudy.MedicalServiceEvents(u)...)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	obs, err := m.ObserveBatchContext(ctx, events)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(obs) != len(events) {
		t.Fatalf("observations = %d, want %d (aligned with input)", len(obs), len(events))
	}
	for i, o := range obs {
		if o.Matched {
			t.Fatalf("event %d was applied despite pre-cancelled context", i)
		}
	}
	if alerts := m.Alerts(); len(alerts) != 0 {
		t.Fatalf("%d alerts raised despite pre-cancelled context", len(alerts))
	}
}

func TestObserveBatchContextBackgroundMatchesObserveBatch(t *testing.T) {
	m1, users := cancelMonitor(t)
	m2, _ := cancelMonitor(t)
	var events []service.Event
	for _, u := range users {
		events = append(events, casestudy.MedicalServiceEvents(u)...)
	}
	obs1, err := m1.ObserveBatch(events)
	if err != nil {
		t.Fatal(err)
	}
	obs2, err := m2.ObserveBatchContext(context.Background(), events)
	if err != nil {
		t.Fatal(err)
	}
	for i := range obs1 {
		if obs1[i].From != obs2[i].From || obs1[i].To != obs2[i].To || obs1[i].Matched != obs2[i].Matched {
			t.Fatalf("observation %d differs between ObserveBatch and ObserveBatchContext", i)
		}
	}
}

func TestRegisterUserContextCancelled(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	p, err := core.Generate(casestudy.Surgery())
	if err != nil {
		t.Fatal(err)
	}
	m, err := runtime.NewMonitor(p, runtime.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := m.RegisterUserContext(ctx, casestudy.PatientProfile()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The cancelled analysis must not be cached: registering again with a
	// live context runs the real analysis and succeeds.
	if err := m.RegisterUserContext(context.Background(), casestudy.PatientProfile()); err != nil {
		t.Fatalf("retry after cancellation: %v", err)
	}
}

// TestImportUsersContextDone: a batch handed over under a context that is
// already done installs nothing, even when every shape in it is cached and
// nothing would have polled the context.
func TestImportUsersContextDone(t *testing.T) {
	m, users := cancelMonitor(t)
	snap, ok := m.ExportUser(users[0])
	if !ok {
		t.Fatal("no snapshot for a registered user")
	}
	snap.Profile.ID = "late-arrival"
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := m.ImportUsers(ctx, []runtime.UserSnapshot{snap}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, ok := m.ExportUser("late-arrival"); ok {
		t.Fatal("a user was installed despite the cancelled context")
	}
}
