package runtime_test

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

func surgeryMonitor(t testing.TB) (*core.PrivacyLTS, *runtime.Monitor) {
	t.Helper()
	p, err := core.Generate(casestudy.Surgery())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	monitor, err := runtime.NewMonitor(p, runtime.Config{})
	if err != nil {
		t.Fatalf("NewMonitor: %v", err)
	}
	if err := monitor.RegisterUser(casestudy.PatientProfile()); err != nil {
		t.Fatalf("RegisterUser: %v", err)
	}
	return p, monitor
}

// medicalServiceEvents returns the runtime events of one full execution of
// the medical service for the given user, in flow order (the shared
// case-study fixture).
func medicalServiceEvents(userID string) []service.Event {
	return casestudy.MedicalServiceEvents(userID)
}

func TestNewMonitorValidation(t *testing.T) {
	if _, err := runtime.NewMonitor(nil, runtime.Config{}); err == nil {
		t.Error("nil LTS accepted")
	}
}

func TestObserveUnregisteredUser(t *testing.T) {
	_, monitor := surgeryMonitor(t)
	_, err := monitor.Observe(service.Event{UserID: "stranger", Actor: casestudy.ActorDoctor, Action: core.ActionCollect,
		Fields: []string{casestudy.FieldName}})
	if err == nil {
		t.Error("event for unregistered user accepted")
	}
	if got := monitor.Users(); len(got) != 1 || got[0] != "patient-1" {
		t.Errorf("Users() = %v", got)
	}
}

func TestObserveMedicalServiceRun(t *testing.T) {
	p, monitor := surgeryMonitor(t)
	userID := "patient-1"

	initial, ok := monitor.CurrentState(userID)
	if !ok || initial != p.InitialState() {
		t.Fatalf("initial cursor = %v, %v", initial, ok)
	}

	for i, ev := range medicalServiceEvents(userID) {
		obs, err := monitor.Observe(ev)
		if err != nil {
			t.Fatalf("Observe(%d): %v", i, err)
		}
		if !obs.Matched {
			t.Fatalf("event %d (%s by %s) did not match any transition", i, ev.Action, ev.Actor)
		}
		// Running the consented medical service must not raise alerts.
		if len(obs.Alerts) != 0 {
			t.Fatalf("event %d raised alerts: %+v", i, obs.Alerts)
		}
	}

	// After the run, the user's privacy state reflects the nurse knowing the
	// treatment and the administrator being able to read the EHR.
	vec, ok := monitor.CurrentVector(userID)
	if !ok {
		t.Fatal("CurrentVector missing")
	}
	if !vec.Has(casestudy.ActorNurse, casestudy.FieldTreatment) {
		t.Error("nurse should have identified the treatment")
	}
	if !vec.Could(casestudy.ActorAdministrator, casestudy.FieldDiagnosis) {
		t.Error("administrator should be able to identify the diagnosis")
	}
	if len(monitor.Alerts()) != 0 {
		t.Errorf("no alerts expected for the consented service, got %+v", monitor.Alerts())
	}
}

func TestObserveAdministratorReadRaisesAlert(t *testing.T) {
	_, monitor := surgeryMonitor(t)
	userID := "patient-1"
	for _, ev := range medicalServiceEvents(userID) {
		if _, err := monitor.Observe(ev); err != nil {
			t.Fatal(err)
		}
	}

	// The administrator now reads the EHR outside any flow: this matches the
	// potential-read transition and must raise a medium-risk alert (case
	// study IV-A observed at runtime).
	obs, err := monitor.Observe(service.Event{
		Actor: casestudy.ActorAdministrator, Action: core.ActionRead, Datastore: casestudy.StoreEHR,
		UserID: userID, Fields: []string{casestudy.FieldDiagnosis},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !obs.Matched {
		t.Fatal("administrator read did not match the potential-read transition")
	}
	if len(obs.Alerts) != 1 {
		t.Fatalf("alerts = %+v, want exactly one", obs.Alerts)
	}
	alert := obs.Alerts[0]
	if alert.Kind != runtime.AlertRisk {
		t.Errorf("alert kind = %v, want risk", alert.Kind)
	}
	if alert.Risk != risk.LevelMedium {
		t.Errorf("alert risk = %v, want medium", alert.Risk)
	}
	if alert.Finding.Actor != casestudy.ActorAdministrator {
		t.Errorf("alert finding actor = %q", alert.Finding.Actor)
	}
	if got := monitor.AlertsFor(userID); len(got) != 1 {
		t.Errorf("AlertsFor = %d alerts", len(got))
	}
	// The cursor advanced: the administrator now HAS the diagnosis.
	vec, _ := monitor.CurrentVector(userID)
	if !vec.Has(casestudy.ActorAdministrator, casestudy.FieldDiagnosis) {
		t.Error("administrator should have identified the diagnosis after the read")
	}
}

func TestObserveUnmodelledBehaviour(t *testing.T) {
	_, monitor := surgeryMonitor(t)
	userID := "patient-1"
	// A researcher reading the raw EHR is neither a declared flow nor a
	// policy-permitted potential read, so it is unmodelled behaviour.
	obs, err := monitor.Observe(service.Event{
		Actor: casestudy.ActorResearcher, Action: core.ActionRead, Datastore: casestudy.StoreEHR,
		UserID: userID, Fields: []string{casestudy.FieldDiagnosis},
	})
	if err != nil {
		t.Fatal(err)
	}
	if obs.Matched {
		t.Fatal("unmodelled event matched a transition")
	}
	if len(obs.Alerts) != 1 || obs.Alerts[0].Kind != runtime.AlertUnmodelled {
		t.Fatalf("alerts = %+v, want one unmodelled-behaviour alert", obs.Alerts)
	}
	if obs.From != obs.To {
		t.Error("cursor must not move on unmodelled behaviour")
	}
	if runtime.AlertUnmodelled.String() != "unmodelled-behaviour" || runtime.AlertKind(9).String() == "" {
		t.Error("AlertKind.String() misbehaves")
	}
}

func TestObserveDeniedEvent(t *testing.T) {
	_, monitor := surgeryMonitor(t)
	obs, err := monitor.Observe(service.Event{
		Actor: casestudy.ActorNurse, Action: core.ActionRead, Datastore: casestudy.StoreEHR,
		UserID: "patient-1", Fields: []string{casestudy.FieldDiagnosis}, Denied: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(obs.Alerts) != 1 || obs.Alerts[0].Kind != runtime.AlertDenied {
		t.Fatalf("alerts = %+v, want one denied-operation alert", obs.Alerts)
	}
}

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
	go func() { done <- monitor.Watch(events) }()

	ctx := context.Background()
	userID := profile.ID

	// The doctor records the consultation and the nurse reads the treatment
	// (we drive the stores directly for collect-style knowledge, since
	// collect happens between people, not against a datastore).
	if _, err := monitor.Observe(service.Event{Actor: casestudy.ActorReceptionist, Action: core.ActionCollect,
		UserID: userID, Fields: []string{casestudy.FieldName, casestudy.FieldDateOfBirth}}); err != nil {
		t.Fatal(err)
	}
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
	if _, err := monitor.Observe(service.Event{Actor: casestudy.ActorDoctor, Action: core.ActionCollect,
		UserID: userID, Fields: []string{casestudy.FieldMedicalIssues}}); err != nil {
		t.Fatal(err)
	}
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

	alerts := monitor.AlertsFor(userID)
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

// TestMonitorAlertAt: Config.AlertAt is the threshold a finding's risk must
// reach to raise an alert. After one run of the medical service the
// administrator can read the EHR (a medium-risk finding) or the appointments
// store (a low-risk one): the default threshold, medium, alerts on the first
// only, high on neither and low on both.
func TestMonitorAlertAt(t *testing.T) {
	p, err := core.Generate(casestudy.Surgery())
	if err != nil {
		t.Fatal(err)
	}
	const userID = "patient-1"
	reads := map[risk.Level]service.Event{
		risk.LevelLow: {Actor: casestudy.ActorAdministrator, Action: core.ActionRead,
			Datastore: casestudy.StoreAppointments, UserID: userID, Fields: []string{casestudy.FieldAppointment}},
		risk.LevelMedium: {Actor: casestudy.ActorAdministrator, Action: core.ActionRead,
			Datastore: casestudy.StoreEHR, UserID: userID, Fields: []string{casestudy.FieldDiagnosis}},
	}
	for _, tc := range []struct {
		alertAt, read risk.Level
		want          bool
	}{
		{0, risk.LevelMedium, true},
		{0, risk.LevelLow, false},
		{risk.LevelHigh, risk.LevelMedium, false},
		{risk.LevelLow, risk.LevelLow, true},
	} {
		monitor, err := runtime.NewMonitor(p, runtime.Config{AlertAt: tc.alertAt})
		if err != nil {
			t.Fatal(err)
		}
		if err := monitor.RegisterUser(casestudy.PatientProfile()); err != nil {
			t.Fatal(err)
		}
		for _, ev := range medicalServiceEvents(userID) {
			if _, err := monitor.Observe(ev); err != nil {
				t.Fatal(err)
			}
		}
		obs, err := monitor.Observe(reads[tc.read])
		if err != nil {
			t.Fatal(err)
		}
		if !obs.Matched {
			t.Fatalf("AlertAt %v: the %v-risk read matched no transition", tc.alertAt, tc.read)
		}
		if got := len(obs.Alerts) == 1; got != tc.want {
			t.Errorf("AlertAt %v: the %v-risk read raised %+v, want an alert: %v", tc.alertAt, tc.read, obs.Alerts, tc.want)
		} else if got && (obs.Alerts[0].Kind != runtime.AlertRisk || obs.Alerts[0].Risk != tc.read) {
			t.Errorf("AlertAt %v: the %v-risk read raised %+v", tc.alertAt, tc.read, obs.Alerts[0])
		}
	}
}
