package runtime

import (
	"context"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"

	"privascope/internal/casestudy"
	"privascope/internal/core"
	"privascope/internal/risk"
	"privascope/internal/service"
)

func snapshotTestModel(t *testing.T) *core.PrivacyLTS {
	t.Helper()
	p, err := core.Generate(casestudy.Surgery())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// snapshotTrace is a trace with all three alert shapes plus matched events,
// so the snapshot counters cover every ingest outcome.
func snapshotTrace(userID string) []service.Event {
	return append(casestudy.MedicalServiceEvents(userID),
		service.Event{Actor: casestudy.ActorAdministrator, Action: core.ActionRead, Datastore: casestudy.StoreEHR,
			UserID: userID, Fields: []string{casestudy.FieldDiagnosis}},
		service.Event{Actor: casestudy.ActorResearcher, Action: core.ActionRead, Datastore: casestudy.StoreEHR,
			UserID: userID, Fields: []string{casestudy.FieldDiagnosis}},
		service.Event{Actor: casestudy.ActorNurse, Action: core.ActionRead, Datastore: casestudy.StoreEHR,
			UserID: userID, Fields: []string{casestudy.FieldDiagnosis}, Denied: true},
	)
}

// TestExportImportResumesMidStream is the handoff correctness core: feeding a
// prefix to one monitor, moving the user's snapshot to a second monitor and
// feeding the suffix there must produce exactly the alerts, cursor and
// counters of one uninterrupted monitor — for every split point.
func TestExportImportResumesMidStream(t *testing.T) {
	p := snapshotTestModel(t)
	profile := casestudy.PatientProfile()
	trace := snapshotTrace(profile.ID)

	whole, err := NewMonitor(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := whole.RegisterUser(profile); err != nil {
		t.Fatal(err)
	}
	whole.IngestBatch(trace)
	wantSnap, ok := whole.ExportUser(profile.ID)
	if !ok {
		t.Fatal("uninterrupted monitor lost the user")
	}

	for split := 0; split <= len(trace); split++ {
		first, err := NewMonitor(p, Config{})
		if err != nil {
			t.Fatal(err)
		}
		second, err := NewMonitor(p, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := first.RegisterUser(profile); err != nil {
			t.Fatal(err)
		}
		first.IngestBatch(trace[:split])
		snap, ok := first.ExportUser(profile.ID)
		if !ok {
			t.Fatalf("split %d: user missing from first monitor", split)
		}
		if !first.RemoveUser(profile.ID) {
			t.Fatalf("split %d: RemoveUser found nothing", split)
		}
		if err := second.ImportUser(snap); err != nil {
			t.Fatalf("split %d: import: %v", split, err)
		}
		second.IngestBatch(trace[split:])

		got, ok := second.ExportUser(profile.ID)
		if !ok {
			t.Fatalf("split %d: user missing from second monitor", split)
		}
		if !reflect.DeepEqual(got, wantSnap) {
			t.Errorf("split %d: final snapshot %+v, want %+v", split, got, wantSnap)
		}
		merged := append(first.Alerts(), second.Alerts()...)
		if want := whole.Alerts(); !reflect.DeepEqual(merged, want) {
			t.Errorf("split %d: merged alerts differ:\n got %+v\nwant %+v", split, merged, want)
		}
	}
}

func TestExportUserCounters(t *testing.T) {
	p := snapshotTestModel(t)
	profile := casestudy.PatientProfile()
	m, err := NewMonitor(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterUser(profile); err != nil {
		t.Fatal(err)
	}
	snap, ok := m.ExportUser(profile.ID)
	if !ok || snap.Applied != 0 || snap.Alerts != 0 || snap.State != p.InitialState() {
		t.Fatalf("fresh snapshot = %+v (ok=%v), want zero counters at the initial state", snap, ok)
	}
	trace := snapshotTrace(profile.ID)
	m.IngestBatch(trace)
	snap, _ = m.ExportUser(profile.ID)
	if snap.Applied != int64(len(trace)) {
		t.Errorf("Applied = %d, want %d", snap.Applied, len(trace))
	}
	if want := int64(len(m.AlertsFor(profile.ID))); snap.Alerts != want {
		t.Errorf("Alerts = %d, want %d", snap.Alerts, want)
	}
	if snap.Profile.ID != profile.ID {
		t.Errorf("snapshot profile ID = %q", snap.Profile.ID)
	}
}

// TestReRegisterResetsImportOverwrites pins the difference a handoff retry
// depends on: registering an ID the monitor already tracks starts the user
// over (initial state, zero Applied and Alerts), while importing over it
// installs the snapshot's cursor and counters as they are — so a retried
// import is idempotent and a retried registration is not.
func TestReRegisterResetsImportOverwrites(t *testing.T) {
	p := snapshotTestModel(t)
	profile := casestudy.PatientProfile()
	m, err := NewMonitor(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterUser(profile); err != nil {
		t.Fatal(err)
	}
	m.IngestBatch(snapshotTrace(profile.ID))
	advanced, _ := m.ExportUser(profile.ID)
	if advanced.Applied == 0 || advanced.Alerts == 0 || advanced.State == p.InitialState() {
		t.Fatalf("trace left the user at %+v, want a moved cursor and non-zero counters", advanced)
	}
	raised := len(m.Alerts())

	if err := m.RegisterUser(profile); err != nil {
		t.Fatal(err)
	}
	want := UserSnapshot{Profile: profile, State: p.InitialState()}
	if got, _ := m.ExportUser(profile.ID); !reflect.DeepEqual(got, want) {
		t.Errorf("after re-registering: %+v, want %+v", got, want)
	}
	if got := len(m.Alerts()); got != raised {
		t.Errorf("re-registering changed the alert log from %d to %d entries", raised, got)
	}

	for attempt := 0; attempt < 2; attempt++ {
		if err := m.ImportUser(advanced); err != nil {
			t.Fatal(err)
		}
		if got, _ := m.ExportUser(profile.ID); !reflect.DeepEqual(got, advanced) {
			t.Errorf("after import %d: %+v, want %+v", attempt, got, advanced)
		}
	}
	if got := m.Users(); len(got) != 1 {
		t.Errorf("Users() = %v, want the one user", got)
	}
}

func TestImportUserValidation(t *testing.T) {
	p := snapshotTestModel(t)
	profile := casestudy.PatientProfile()
	m, err := NewMonitor(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	good := UserSnapshot{Profile: profile, State: p.InitialState()}
	cases := []struct {
		name string
		mut  func(*UserSnapshot)
		want string
	}{
		{"no user ID", func(s *UserSnapshot) { s.Profile.ID = "" }, "no user ID"},
		{"unknown state", func(s *UserSnapshot) { s.State = "no-such-state" }, "not in the model"},
		{"negative applied", func(s *UserSnapshot) { s.Applied = -1 }, "negative cursor"},
		{"negative alerts", func(s *UserSnapshot) { s.Alerts = -1 }, "negative cursor"},
		{"bad sensitivity", func(s *UserSnapshot) {
			s.Profile.Sensitivities = map[string]float64{"x": 1.5}
		}, "outside [0,1]"},
	}
	for _, tc := range cases {
		snap := good
		tc.mut(&snap)
		err := m.ImportUser(snap)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	if m.RemoveUser(profile.ID) {
		t.Error("a rejected import left the user registered")
	}
	if err := m.ImportUser(good); err != nil {
		t.Fatalf("valid import rejected: %v", err)
	}
	if got := m.Users(); len(got) != 1 || got[0] != profile.ID {
		t.Fatalf("Users() after import = %v", got)
	}
}

func TestRemoveUserKeepsAlertHistory(t *testing.T) {
	p := snapshotTestModel(t)
	profile := casestudy.PatientProfile()
	m, err := NewMonitor(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterUser(profile); err != nil {
		t.Fatal(err)
	}
	m.IngestBatch(snapshotTrace(profile.ID))
	raised := len(m.AlertsFor(profile.ID))
	if raised == 0 {
		t.Fatal("trace raised no alerts")
	}
	if !m.RemoveUser(profile.ID) {
		t.Fatal("RemoveUser found nothing")
	}
	if m.RemoveUser(profile.ID) {
		t.Error("second RemoveUser reported success")
	}
	if got := len(m.AlertsFor(profile.ID)); got != raised {
		t.Errorf("alert history shrank from %d to %d on removal", raised, got)
	}
	if _, ok := m.CurrentState(profile.ID); ok {
		t.Error("removed user still has a cursor")
	}
	// Events for the removed user now count as unregistered, not observed.
	stats := m.IngestBatch(snapshotTrace(profile.ID)[:1])
	if stats.Unregistered != 1 {
		t.Errorf("post-removal ingest stats = %+v, want 1 unregistered", stats)
	}
}

// TestMonitorOwnsItsProfiles: the monitor keeps its own copy of a registered
// profile. Editing the caller's map afterwards changes neither the user's
// findings nor what ExportUser returns, and each user's export deep-equals
// the profile it was installed with, service order included, also when
// another user has the same shape in another order.
func TestMonitorOwnsItsProfiles(t *testing.T) {
	p := snapshotTestModel(t)
	m, err := NewMonitor(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	profile := casestudy.PatientProfile()
	profile.ConsentedServices = []string{casestudy.ServiceMedical, casestudy.ServiceResearch}
	reordered := casestudy.PatientProfile()
	reordered.ID = "patient-2"
	reordered.ConsentedServices = []string{casestudy.ServiceResearch, casestudy.ServiceMedical}
	for _, u := range []risk.UserProfile{profile, reordered} {
		if err := m.RegisterUser(u); err != nil {
			t.Fatal(err)
		}
	}
	want := casestudy.PatientProfile()
	want.ConsentedServices = slices.Clone(profile.ConsentedServices)
	profile.Sensitivities[casestudy.FieldDiagnosis] = 0
	delete(profile.Sensitivities, casestudy.FieldTreatment)
	profile.ConsentedServices[0] = "edited"

	got, _ := m.ExportUser(want.ID)
	if !reflect.DeepEqual(got.Profile, want) {
		t.Errorf("after the caller's edit, ExportUser returns %+v, want %+v", got.Profile, want)
	}
	if got, _ := m.ExportUser(reordered.ID); !reflect.DeepEqual(got.Profile, reordered) {
		t.Errorf("the reordered user exports %+v, want %+v", got.Profile, reordered)
	}
	// Nor does an edit of what ExportUser returned: not the user's profile,
	// and not that of a user registered later with the same one.
	got.Profile.Sensitivities[casestudy.FieldDiagnosis] = 0
	got.Profile.ConsentedServices[0] = "edited"
	if again, _ := m.ExportUser(want.ID); !reflect.DeepEqual(again.Profile, want) {
		t.Errorf("after an edit of its export, ExportUser returns %+v, want %+v", again.Profile, want)
	}
	twin := want
	twin.ID = "patient-3"
	if err := m.RegisterUser(twin); err != nil {
		t.Fatal(err)
	}
	if got, _ := m.ExportUser(twin.ID); !reflect.DeepEqual(got.Profile, twin) {
		t.Errorf("a user registered after the edit exports %+v, want %+v", got.Profile, twin)
	}
	// The administrator's read of the diagnosis still raises the risk the
	// registered σ gave it.
	m.IngestBatch(snapshotTrace(want.ID))
	fresh, err := NewMonitor(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.RegisterUser(want); err != nil {
		t.Fatal(err)
	}
	fresh.IngestBatch(snapshotTrace(want.ID))
	if got, want := m.AlertsFor(want.ID), fresh.AlertsFor(want.ID); len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("after the caller's edit the user raised %d alerts, an unedited twin %d", len(got), len(want))
	}
}

// TestImportBatchRecordsMatchInterning: one ImportUsers batch mixing runs of
// users that share a profile's storage, equal copies in storage of their own
// and distinct profiles — among them one sharing the map and the services with
// another default, and one sharing the services array at another length —
// gives every user the record, shape and findings that interning each profile
// alone gives.
func TestImportBatchRecordsMatchInterning(t *testing.T) {
	ctx := context.Background()
	p := snapshotTestModel(t)
	m, err := NewMonitor(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	services := []string{casestudy.ServiceMedical, casestudy.ServiceResearch}
	base := casestudy.PatientProfile()
	base.ConsentedServices = services
	otherDefault, shorter, copied, distinct := base, base, base, base
	otherDefault.DefaultSensitivity = 0.7
	shorter.ConsentedServices = services[:1]
	copied.ConsentedServices, copied.Sensitivities = slices.Clone(services), maps.Clone(base.Sensitivities)
	distinct.Sensitivities = map[string]float64{casestudy.FieldDiagnosis: risk.SensitivityLow}
	batch := []risk.UserProfile{base, base, base, otherDefault, otherDefault, shorter, base, copied, copied,
		base, distinct, shorter, otherDefault, base}
	snaps := make([]UserSnapshot, len(batch))
	for i, profile := range batch {
		profile.ID = fmt.Sprintf("user-%d", i)
		snaps[i] = UserSnapshot{Profile: profile, State: p.InitialState()}
	}
	if err := m.ImportUsers(ctx, snaps); err != nil {
		t.Fatal(err)
	}
	var alone risk.Shapes
	for i := range snaps {
		record, shape, err := alone.Intern(snaps[i].Profile)
		if err != nil {
			t.Fatal(err)
		}
		u := &m.slab[m.users[snaps[i].Profile.ID]]
		_, gotShape, _ := alone.Intern(m.assessments.Profile(u.profile))
		if u.profile != record || gotShape != shape {
			t.Errorf("user %d: record %d, shape %d; interned alone, record %d, shape %d", i, u.profile, gotShape, record, shape)
		}
		_, misses := m.AssessmentCacheStats()
		gotRecord, findings, err := m.assessments.AlertFindings(ctx, p, snaps[i].Profile, m.alertAt)
		if _, after := m.AssessmentCacheStats(); err != nil || after != misses {
			t.Errorf("user %d: its shape was never analysed (err %v)", i, err)
		}
		if gotRecord != record || u.findings != findings {
			t.Errorf("user %d does not hold its record (%d, want %d) and its shape's findings", i, u.profile, gotRecord)
		}
	}
}
