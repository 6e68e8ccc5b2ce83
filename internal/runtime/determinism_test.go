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

// TestIngestBatchMatchesSequentialObserve feeds the same stream through the
// two ingestion entry points — sequential Observe calls and IngestBatch — and
// requires identical alert logs, cursors and ExportUser snapshots.
func TestIngestBatchMatchesSequentialObserve(t *testing.T) {
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
	for _, ev := range stream {
		if _, err := sequential.Observe(ev); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(sequential.Alerts()); got != len(users) {
		t.Fatalf("sequential monitor raised %d alerts, want one per user (%d)", got, len(users))
	}

	ingested := newMonitor()
	stats := ingested.IngestBatch(stream)
	if stats.Events != len(stream) || stats.Unregistered != 0 ||
		stats.Unmodelled+stats.Denied+stats.RiskAlerts != len(users) {
		t.Errorf("IngestBatch stats = %+v for %d events raising %d alerts", stats, len(stream), len(users))
	}

	if !reflect.DeepEqual(ingested.Alerts(), sequential.Alerts()) {
		t.Error("IngestBatch: alert log differs from sequential Observe")
	}
	if !reflect.DeepEqual(ingested.Users(), sequential.Users()) {
		t.Errorf("IngestBatch: Users() = %v, want %v", ingested.Users(), sequential.Users())
	}
	for _, id := range users {
		g, _ := ingested.ExportUser(id)
		w, _ := sequential.ExportUser(id)
		if !reflect.DeepEqual(g, w) {
			t.Errorf("IngestBatch: ExportUser(%s) = %+v, want %+v", id, g, w)
		}
		if !reflect.DeepEqual(ingested.AlertsFor(id), sequential.AlertsFor(id)) {
			t.Errorf("IngestBatch: AlertsFor(%s) differs from sequential Observe", id)
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

// TestIngestBatchUnregisteredUsers: events of unknown users are counted and
// dropped while the rest of the batch is still applied.
func TestIngestBatchUnregisteredUsers(t *testing.T) {
	_, monitor := surgeryMonitor(t)
	batch := []service.Event{
		{Actor: casestudy.ActorReceptionist, Action: core.ActionCollect, UserID: "patient-1",
			Fields: []string{casestudy.FieldName, casestudy.FieldDateOfBirth}},
		{Actor: casestudy.ActorReceptionist, Action: core.ActionCollect, UserID: "stranger",
			Fields: []string{casestudy.FieldName}},
	}
	stats := monitor.IngestBatch(batch)
	if want := (runtime.IngestStats{Events: 2, Matched: 1, Unregistered: 1}); stats != want {
		t.Fatalf("stats = %+v, want %+v", stats, want)
	}
	if alerts := monitor.Alerts(); len(alerts) != 0 {
		t.Errorf("alerts = %+v, want none: the stranger is dropped, the collect is modelled", alerts)
	}
}
