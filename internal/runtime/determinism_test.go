package runtime_test

import (
	"fmt"
	"reflect"
	"testing"

	"privascope/internal/casestudy"
	"privascope/internal/core"
	"privascope/internal/runtime"
	"privascope/internal/service"
)

// mixedEventStream interleaves, across several users, consented
// medical-service runs with risky potential reads, unmodelled behaviour and
// denied operations — every alert kind and the no-alert hot path.
func mixedEventStream(users []string) []service.Event {
	var out []service.Event
	for _, id := range users {
		out = append(out, medicalServiceEvents(id)...)
	}
	for i, id := range users {
		switch i % 3 {
		case 0: // risky potential read by the administrator
			out = append(out, service.Event{Actor: casestudy.ActorAdministrator, Action: core.ActionRead,
				Datastore: casestudy.StoreEHR, UserID: id, Fields: []string{casestudy.FieldDiagnosis}})
		case 1: // unmodelled: the researcher reads the raw EHR
			out = append(out, service.Event{Actor: casestudy.ActorResearcher, Action: core.ActionRead,
				Datastore: casestudy.StoreEHR, UserID: id, Fields: []string{casestudy.FieldDiagnosis}})
		case 2: // denied operation
			out = append(out, service.Event{Actor: casestudy.ActorNurse, Action: core.ActionRead,
				Datastore: casestudy.StoreEHR, UserID: id, Fields: []string{casestudy.FieldDiagnosis}, Denied: true})
		}
	}
	return out
}

// TestObserveBatchMatchesSequentialObserve feeds the same stream through the
// three ingestion entry points — sequential Observe calls, ObserveBatch and
// IngestBatch — and requires identical observations (where the entry point
// returns them), alert logs, cursors and ExportUser snapshots.
func TestObserveBatchMatchesSequentialObserve(t *testing.T) {
	p, err := core.Generate(casestudy.Surgery())
	if err != nil {
		t.Fatal(err)
	}
	users := make([]string, 8)
	for i := range users {
		users[i] = fmt.Sprintf("patient-%d", i)
	}
	stream := mixedEventStream(users)

	newMonitor := func() *runtime.Monitor {
		m, err := runtime.NewMonitor(p, runtime.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range users {
			profile := casestudy.PatientProfile()
			profile.ID = id
			if err := m.RegisterUser(profile); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}

	sequential := newMonitor()
	var want []runtime.Observation
	for _, ev := range stream {
		obs, err := sequential.Observe(ev)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, obs)
	}
	if got := len(sequential.Alerts()); got != len(users) {
		t.Fatalf("sequential monitor raised %d alerts, want one per user (%d)", got, len(users))
	}

	batched := newMonitor()
	got, err := batched.ObserveBatch(stream)
	if err != nil {
		t.Fatalf("ObserveBatch: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ObserveBatch observations differ from sequential Observe:\n got %+v\nwant %+v", got, want)
	}

	ingested := newMonitor()
	stats := ingested.IngestBatch(stream)
	if stats.Events != len(stream) || stats.Unregistered != 0 ||
		stats.Unmodelled+stats.Denied+stats.RiskAlerts != len(users) {
		t.Errorf("IngestBatch stats = %+v for %d events raising %d alerts", stats, len(stream), len(users))
	}

	for name, m := range map[string]*runtime.Monitor{"ObserveBatch": batched, "IngestBatch": ingested} {
		if !reflect.DeepEqual(m.Alerts(), sequential.Alerts()) {
			t.Errorf("%s: alert log differs from sequential Observe", name)
		}
		if !reflect.DeepEqual(m.Users(), sequential.Users()) {
			t.Errorf("%s: Users() = %v, want %v", name, m.Users(), sequential.Users())
		}
		for _, id := range users {
			g, _ := m.ExportUser(id)
			w, _ := sequential.ExportUser(id)
			if !reflect.DeepEqual(g, w) {
				t.Errorf("%s: ExportUser(%s) = %+v, want %+v", name, id, g, w)
			}
			if !reflect.DeepEqual(m.AlertsFor(id), sequential.AlertsFor(id)) {
				t.Errorf("%s: AlertsFor(%s) differs from sequential Observe", name, id)
			}
		}
	}
}

func alertSummaries(alerts []runtime.Alert) []string {
	out := make([]string, len(alerts))
	for i, a := range alerts {
		out[i] = fmt.Sprintf("%s|%s|%s", a.Kind, a.UserID, a.Message)
	}
	return out
}

// TestObserveBatchUnregisteredUsers: unknown users yield a joined error and
// zero observations while the rest of the batch is still processed.
func TestObserveBatchUnregisteredUsers(t *testing.T) {
	_, monitor := surgeryMonitor(t)
	batch := []service.Event{
		{Actor: casestudy.ActorReceptionist, Action: core.ActionCollect, UserID: "patient-1",
			Fields: []string{casestudy.FieldName, casestudy.FieldDateOfBirth}},
		{Actor: casestudy.ActorReceptionist, Action: core.ActionCollect, UserID: "stranger",
			Fields: []string{casestudy.FieldName}},
	}
	observations, err := monitor.ObserveBatch(batch)
	if err == nil {
		t.Fatal("ObserveBatch accepted an unregistered user")
	}
	if len(observations) != 2 {
		t.Fatalf("observations = %d, want 2", len(observations))
	}
	if !observations[0].Matched {
		t.Error("registered user's event should have matched")
	}
	if observations[1].Matched || len(observations[1].Alerts) != 0 {
		t.Errorf("unregistered user's observation should be zero, got %+v", observations[1])
	}
}
