package runtime_test

import (
	"strings"
	"testing"

	"privascope/internal/casestudy"
	"privascope/internal/core"
	"privascope/internal/runtime"
	"privascope/internal/service"
)

// FuzzObserve feeds arbitrary events to the monitor and asserts its safety
// contract: Observe never panics, never moves the cursor to a state outside
// the model, and every non-denied event that matches no transition raises
// exactly one AlertUnmodelled. The fuzzer mutates every event component —
// actor, action (including invalid ones), datastore, fields and the denied
// flag — against a live monitor whose cursor wanders as matching events
// land. Run it with: go test -fuzz=FuzzObserve ./internal/runtime
func FuzzObserve(f *testing.F) {
	p, err := core.Generate(casestudy.Surgery())
	if err != nil {
		f.Fatal(err)
	}
	// panic rather than f.Fatal: this also runs inside the f.Fuzz callback
	// (periodic monitor recycling), where F methods must not be called.
	newMonitor := func() *runtime.Monitor {
		monitor, err := runtime.NewMonitor(p, runtime.Config{})
		if err != nil {
			panic(err)
		}
		if err := monitor.RegisterUser(casestudy.PatientProfile()); err != nil {
			panic(err)
		}
		return monitor
	}
	monitor := newMonitor()
	events := 0

	// Seeds: a valid collect, a potential read, unmodelled behaviour, a
	// denied operation, junk fields and an unknown user.
	f.Add("receptionist", uint8(core.ActionCollect), "", "name,date_of_birth", false, true)
	f.Add("administrator", uint8(core.ActionRead), "ehr", "diagnosis", false, true)
	f.Add("researcher", uint8(core.ActionRead), "ehr", "diagnosis", false, true)
	f.Add("nurse", uint8(core.ActionRead), "ehr", "diagnosis", true, true)
	f.Add("doctor", uint8(200), "ehr", ",,\x00,", false, true)
	f.Add("", uint8(0), "", "", false, false)

	f.Fuzz(func(t *testing.T, actor string, action uint8, datastore, fieldCSV string, denied, knownUser bool) {
		// Periodically start fresh so a long fuzz run does not accumulate an
		// unbounded alert log.
		if events++; events > 4096 {
			monitor, events = newMonitor(), 0
		}
		userID := casestudy.PatientProfile().ID
		if !knownUser {
			userID = "unregistered-" + actor
		}
		var fields []string
		for _, field := range strings.Split(fieldCSV, ",") {
			if field != "" {
				fields = append(fields, field)
			}
		}
		ev := service.Event{
			Actor:     actor,
			Action:    core.Action(action),
			Datastore: datastore,
			UserID:    userID,
			Fields:    fields,
			Denied:    denied,
		}
		obs, err := monitor.Observe(ev)
		if !knownUser {
			if err == nil {
				t.Fatalf("unregistered user %q accepted", userID)
			}
			return
		}
		if err != nil {
			t.Fatalf("Observe(%+v): %v", ev, err)
		}
		switch {
		case denied:
			if obs.Matched || len(obs.Alerts) != 1 || obs.Alerts[0].Kind != runtime.AlertDenied {
				t.Fatalf("denied event: obs = %+v, want one denied-operation alert", obs)
			}
		case !obs.Matched:
			if obs.From != obs.To {
				t.Fatalf("cursor moved on unmodelled behaviour: %+v", obs)
			}
			if len(obs.Alerts) != 1 || obs.Alerts[0].Kind != runtime.AlertUnmodelled {
				t.Fatalf("unmodelled event must raise exactly one unmodelled alert, got %+v", obs.Alerts)
			}
		default:
			if obs.Transition.From != obs.From || obs.Transition.To != obs.To {
				t.Fatalf("matched observation inconsistent: %+v", obs)
			}
			if _, ok := p.Vector(obs.To); !ok {
				t.Fatalf("cursor moved to a state outside the model: %s", obs.To)
			}
			for _, a := range obs.Alerts {
				if a.Kind != runtime.AlertRisk {
					t.Fatalf("matched event raised non-risk alert: %+v", a)
				}
			}
		}
		if state, ok := monitor.CurrentState(userID); !ok || state != obs.To {
			t.Fatalf("CurrentState = %v/%v, want %s", state, ok, obs.To)
		}
	})
}
