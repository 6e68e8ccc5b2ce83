package runtime_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"privascope/internal/casestudy"
	"privascope/internal/core"
	"privascope/internal/runtime"
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
