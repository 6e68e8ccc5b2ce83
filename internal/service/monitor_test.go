package service_test

import (
	"context"
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
	// servers, subscribe the monitor to the cluster's event log, then have
	// the administrator read the EHR and observe the alert.
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

	cluster, err := service.StartCluster(casestudy.Surgery())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = cluster.Stop(ctx)
	}()

	events, cancel := cluster.Log().Subscribe(128)
	defer cancel()
	done := make(chan int, 1)
	go func() {
		n := 0
		for ev := range events {
			n++
			_, _ = monitor.Observe(ev)
		}
		done <- n
	}()

	ctx := context.Background()
	userID := profile.ID

	// The doctor records the consultation and the nurse reads the treatment.
	// Collect happens between people, not against a datastore, so the test
	// appends those events to the cluster's log itself: one ordered stream
	// then feeds Watch, and no collect can overtake the store events before it.
	cluster.Log().Append(service.Event{Actor: casestudy.ActorReceptionist, Action: core.ActionCollect,
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
	cluster.Log().Append(service.Event{Actor: casestudy.ActorDoctor, Action: core.ActionCollect,
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

	// Stop the cluster so the log subscription closes and Watch returns.
	ctxStop, cancelStop := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancelStop()
	if err := cluster.Stop(ctxStop); err != nil {
		t.Fatal(err)
	}
	cancel()
	observed := <-done
	if observed < 5 {
		t.Errorf("monitor observed %d events, want at least 5", observed)
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
