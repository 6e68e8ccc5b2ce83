package service_test

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"privascope/internal/casestudy"
	"privascope/internal/core"
	"privascope/internal/risk"
	"privascope/internal/runtime"
	"privascope/internal/service"
)

func TestMonitorWithLiveCluster(t *testing.T) {
	// End-to-end: run the medical service against real HTTP datastore
	// servers whose sink is the monitor, then have the administrator read the
	// EHR and observe the alert.
	p, err := core.Generate(casestudy.Surgery())
	if err != nil {
		t.Fatal(err)
	}
	monitor, err := runtime.NewMonitor(p, runtime.Config{})
	if err != nil {
		t.Fatal(err)
	}
	profile := casestudy.PatientProfile()
	if err := monitor.RegisterUser(profile); err != nil {
		t.Fatal(err)
	}

	var observed atomic.Int64
	cluster, err := service.StartCluster(casestudy.Surgery(), func(ev service.Event) {
		observed.Add(1)
		if _, err := monitor.Observe(ev); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = cluster.Stop(ctx)
	}()

	ctx := context.Background()
	userID := profile.ID

	// The doctor records the consultation and the nurse reads the treatment.
	// Collect happens between people, not against a datastore, so the test
	// observes those events itself. A datastore's event reaches the monitor
	// before the datastore answers, so no collect can overtake the store
	// events before it.
	observe := func(ev service.Event) {
		if _, err := monitor.Observe(ev); err != nil {
			t.Fatal(err)
		}
	}
	observe(service.Event{Actor: casestudy.ActorReceptionist, Action: core.ActionCollect,
		UserID: userID, Fields: []string{casestudy.FieldName, casestudy.FieldDateOfBirth}})
	receptionist, err := cluster.Client(casestudy.StoreAppointments, casestudy.ActorReceptionist)
	if err != nil {
		t.Fatal(err)
	}
	if err := receptionist.Put(ctx, userID, "schedule appointment", map[string]string{
		casestudy.FieldName:        "Pat Example",
		casestudy.FieldDateOfBirth: "1990-01-01",
		casestudy.FieldAppointment: "2026-06-20 09:00",
	}); err != nil {
		t.Fatal(err)
	}
	doctorAppointments, err := cluster.Client(casestudy.StoreAppointments, casestudy.ActorDoctor)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := doctorAppointments.Get(ctx, userID, "prepare consultation", nil); err != nil {
		t.Fatal(err)
	}
	observe(service.Event{Actor: casestudy.ActorDoctor, Action: core.ActionCollect,
		UserID: userID, Fields: []string{casestudy.FieldMedicalIssues}})
	doctorEHR, err := cluster.Client(casestudy.StoreEHR, casestudy.ActorDoctor)
	if err != nil {
		t.Fatal(err)
	}
	if err := doctorEHR.Put(ctx, userID, "record consultation", map[string]string{
		casestudy.FieldName:          "Pat Example",
		casestudy.FieldDateOfBirth:   "1990-01-01",
		casestudy.FieldMedicalIssues: "persistent cough",
		casestudy.FieldDiagnosis:     "bronchitis",
		casestudy.FieldTreatment:     "rest and fluids",
	}); err != nil {
		t.Fatal(err)
	}
	nurse, err := cluster.Client(casestudy.StoreEHR, casestudy.ActorNurse)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nurse.Get(ctx, userID, "administer treatment", []string{casestudy.FieldName, casestudy.FieldTreatment}); err != nil {
		t.Fatal(err)
	}

	// The administrator now browses the EHR.
	admin, err := cluster.Client(casestudy.StoreEHR, casestudy.ActorAdministrator)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := admin.Get(ctx, userID, "maintenance", []string{casestudy.FieldDiagnosis}); err != nil {
		t.Fatal(err)
	}

	// Five datastore requests, five events: each reached the monitor before
	// its request was answered.
	if got := observed.Load(); got != 5 {
		t.Errorf("monitor observed %d datastore events, want 5", got)
	}

	alerts := monitor.Alerts()
	var riskAlert bool
	for _, a := range alerts {
		if a.Kind == runtime.AlertRisk && a.Event.Actor == casestudy.ActorAdministrator {
			riskAlert = true
			if a.Risk < risk.LevelMedium {
				t.Errorf("administrator alert risk = %v, want >= medium", a.Risk)
			}
		}
	}
	if !riskAlert {
		t.Errorf("expected a risk alert for the administrator's EHR read; alerts: %+v", alerts)
	}
}
