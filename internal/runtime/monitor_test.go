package runtime_test

import (
	"fmt"
	goruntime "runtime"
	"slices"
	"testing"

	"privascope/internal/casestudy"
	"privascope/internal/core"
	"privascope/internal/lts"
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
	if !vec.Get(casestudy.ActorAdministrator, casestudy.FieldDiagnosis, core.CouldIdentify) {
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

// TestObserveDeclaredBeforeEarlierPotential: a declared flow wins over a
// potential read with the same action, actor and datastore even when the
// potential read comes first among the state's outgoing edges. Generation
// emits declared edges first, so the case-study model is rebuilt from its
// parts with the nurse's potential EHR read moved ahead of the declared
// "administer treatment" flow at the state the medical service reaches
// before it.
func TestObserveDeclaredBeforeEarlierPotential(t *testing.T) {
	p, monitor := surgeryMonitor(t)
	events := medicalServiceEvents("patient-1")
	prefix, read := events[:len(events)-1], events[len(events)-1]
	for _, ev := range prefix {
		if _, err := monitor.Observe(ev); err != nil {
			t.Fatal(err)
		}
	}
	at, _ := monitor.CurrentState("patient-1")
	s, _ := p.Graph.Index(at)
	declared, potential := -1, -1
	for _, e := range p.Graph.Out(s) {
		label := core.LabelOf(p.Graph.TransitionAt(e))
		if label.Action != read.Action || label.Actor != read.Actor || label.Datastore != read.Datastore {
			continue
		}
		if label.Potential && potential < 0 {
			potential = int(e)
		} else if !label.Potential && declared < 0 {
			declared = int(e)
		}
	}
	if declared < 0 || potential < declared {
		t.Fatalf("state %s: declared read edge %d, potential read edge %d; want a declared edge first", at, declared, potential)
	}

	parts := p.Graph.Parts()
	edges := make([]lts.BulkEdge, len(parts.EdgeLabel))
	for e := range edges {
		edges[e] = lts.BulkEdge{From: parts.EdgeFrom[e], To: parts.EdgeTo[e], Label: p.Graph.TransitionAt(int32(e)).Label}
	}
	moved := edges[potential]
	copy(edges[declared+1:potential+1], edges[declared:potential])
	edges[declared] = moved
	graph, err := lts.FromParts(p.Graph.StateCount(), int(parts.Initial), edges)
	if err != nil {
		t.Fatal(err)
	}
	of, sets := p.StoreTable()
	rebuilt := core.RestorePrivacyLTS(p.Model, p.Vocab, graph, p.Warnings, p.VectorWords(), of, sets)
	want := graph.TransitionAt(int32(declared + 1))
	if core.LabelOf(graph.TransitionAt(int32(declared))) != core.LabelOf(p.Graph.TransitionAt(int32(potential))) ||
		core.LabelOf(want) != core.LabelOf(p.Graph.TransitionAt(int32(declared))) {
		t.Fatal("the rebuilt model does not put the potential read right before the declared flow")
	}

	m, err := runtime.NewMonitor(rebuilt, runtime.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterUser(casestudy.PatientProfile()); err != nil {
		t.Fatal(err)
	}
	for _, ev := range prefix {
		if _, err := m.Observe(ev); err != nil {
			t.Fatal(err)
		}
	}
	obs, err := m.Observe(read)
	if err != nil {
		t.Fatal(err)
	}
	if !obs.Matched || obs.Transition != want {
		t.Fatalf("the nurse's read took %v (matched %v), want the declared flow %v", obs.Transition, obs.Matched, want)
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

// TestReturnedAlertsAreTheCallersOwn: an alert a caller holds shares nothing
// mutable with the monitor. Editing the Fields of alerts from Observe, Alerts
// and AlertsFor — the event's, and a risk alert's finding's — changes neither
// what the log reads next nor the finding the same risk raises again.
func TestReturnedAlertsAreTheCallersOwn(t *testing.T) {
	_, monitor := surgeryMonitor(t)
	second := casestudy.PatientProfile()
	second.ID = "patient-2"
	if err := monitor.RegisterUser(second); err != nil {
		t.Fatal(err)
	}
	adminRead := func(userID string) runtime.Observation {
		t.Helper()
		for _, ev := range medicalServiceEvents(userID) {
			if _, err := monitor.Observe(ev); err != nil {
				t.Fatal(err)
			}
		}
		obs, err := monitor.Observe(service.Event{
			Actor: casestudy.ActorAdministrator, Action: core.ActionRead, Datastore: casestudy.StoreEHR,
			UserID: userID, Fields: []string{casestudy.FieldDiagnosis},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(obs.Alerts) != 1 || obs.Alerts[0].Kind != runtime.AlertRisk || len(obs.Alerts[0].Finding.Fields) == 0 {
			t.Fatalf("the administrator's read raised %+v, want one risk alert", obs.Alerts)
		}
		return obs
	}
	const edit = "EDITED"
	// slicesOf returns every slice of strings an alert hands its holder.
	slicesOf := func(a *runtime.Alert) [][]string {
		return [][]string{a.Event.Fields, a.Finding.Fields, a.Finding.Scenarios}
	}
	editAll := func(alerts []runtime.Alert) {
		for i := range alerts {
			for _, s := range slicesOf(&alerts[i]) {
				if len(s) > 0 {
					s[0] = edit
				}
			}
		}
	}
	unedited := func(what string, alerts []runtime.Alert) {
		t.Helper()
		for i := range alerts {
			for _, s := range slicesOf(&alerts[i]) {
				if slices.Contains(s, edit) {
					t.Errorf("%s: alert %d reads %v after its holder edited a copy: %+v", what, i, s, alerts[i])
				}
			}
		}
	}

	editAll(adminRead("patient-1").Alerts)
	unmodelled, err := monitor.Observe(service.Event{
		Actor: casestudy.ActorResearcher, Action: core.ActionRead, Datastore: casestudy.StoreEHR,
		UserID: "patient-1", Fields: []string{casestudy.FieldDiagnosis},
	})
	if err != nil || len(unmodelled.Alerts) != 1 {
		t.Fatalf("the researcher's read raised %+v (%v), want one alert", unmodelled.Alerts, err)
	}
	editAll(unmodelled.Alerts)
	unedited("Alerts after editing Observe's", monitor.Alerts())
	editAll(monitor.Alerts())
	unedited("AlertsFor after editing Alerts'", monitor.AlertsFor("patient-1"))
	editAll(monitor.AlertsFor("patient-1"))
	unedited("Alerts after editing AlertsFor's", monitor.Alerts())
	unedited("the same risk raised again", adminRead("patient-2").Alerts)
}

// TestAlertLogBytesPerAlert: the log keeps a record per alert, not its
// rendering. 1,024 users each raise 56 alerts, denied and unmodelled in turn,
// fed 512 events a batch; after two GCs the heap has grown by at most 96
// bytes per logged alert (a rendered alert, its message and its copied event
// took about 650).
func TestAlertLogBytesPerAlert(t *testing.T) {
	const users, perUser = 1024, 56
	p, err := core.Generate(casestudy.Surgery())
	if err != nil {
		t.Fatal(err)
	}
	monitor, err := runtime.NewMonitor(p, runtime.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var events []service.Event
	for u := range users {
		profile := casestudy.PatientProfile()
		profile.ID = fmt.Sprintf("patient-%04d", u)
		if err := monitor.RegisterUser(profile); err != nil {
			t.Fatal(err)
		}
		script := medicalServiceEvents(profile.ID)
		for i := range perUser {
			ev := script[i%len(script)]
			if i%2 == 0 {
				ev.Denied = true
			} else {
				ev.Actor = casestudy.ActorResearcher
			}
			ev.Seq = int64(len(events) + 1)
			events = append(events, ev)
		}
	}
	heap := func() int64 {
		var stats goruntime.MemStats
		goruntime.GC()
		goruntime.GC()
		goruntime.ReadMemStats(&stats)
		return int64(stats.HeapAlloc)
	}
	before := heap()
	for start := 0; start < len(events); start += 512 {
		monitor.IngestBatch(events[start:min(start+512, len(events))])
	}
	grown := heap() - before
	if records, _ := monitor.AlertLogSize(); records != len(events) {
		t.Fatalf("%d alerts logged, want one an event (%d)", records, len(events))
	}
	per := grown / int64(len(events))
	t.Logf("the heap grew %d bytes per logged alert", per)
	if per > 96 {
		t.Errorf("heap grew %d bytes per logged alert, want at most 96", per)
	}
	goruntime.KeepAlive(events)
}
