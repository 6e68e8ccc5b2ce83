package runtime_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"privascope/internal/core"
	"privascope/internal/lts"
	"privascope/internal/proptest"
	"privascope/internal/proptest/scenario"
	"privascope/internal/risk"
	"privascope/internal/runtime"
	"privascope/internal/service"
)

// TestPropMonitorIngestPathIndependence generalises the fixed-model
// TestIngestBatchMatchesSequentialObserve to random scenarios: one random
// per-user event script fed through sequential Observe calls and through
// IngestBatch must leave the same alert log, the same cursors and the same
// ExportUser snapshots.
func TestPropMonitorIngestPathIndependence(t *testing.T) {
	proptest.Run(t, func(seed int64, rng *rand.Rand) error {
		s := scenario.Draw(seed)
		p, err := s.Generate()
		if err != nil {
			return err
		}
		users := make([]string, len(s.Profiles))
		for i, profile := range s.Profiles {
			users[i] = profile.ID
		}
		perUser := 1 + (48+len(users)-1)/len(users)
		stream := scenario.RandomEventStream(rng, p, users, perUser)

		type result struct {
			alerts    []runtime.Alert
			snapshots []runtime.UserSnapshot
		}
		runWith := func(path string, feed func(*runtime.Monitor) error) (result, error) {
			monitor, err := runtime.NewMonitor(p, runtime.Config{})
			if err != nil {
				return result{}, err
			}
			for _, profile := range s.Profiles {
				if err := monitor.RegisterUser(profile); err != nil {
					return result{}, err
				}
			}
			if err := feed(monitor); err != nil {
				return result{}, fmt.Errorf("%s: %w", path, err)
			}
			res := result{alerts: monitor.Alerts()}
			for _, id := range users {
				snap, ok := monitor.ExportUser(id)
				if !ok {
					return result{}, fmt.Errorf("%s: user %s has no state", path, id)
				}
				res.snapshots = append(res.snapshots, snap)
			}
			return res, nil
		}

		want, err := runWith("Observe", func(m *runtime.Monitor) error {
			for _, ev := range stream {
				if _, err := m.Observe(ev); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		ingested, err := runWith("IngestBatch", func(m *runtime.Monitor) error {
			if stats := m.IngestBatch(stream); stats.Events != len(stream) || stats.Unregistered != 0 {
				return fmt.Errorf("stats %+v for %d events of registered users", stats, len(stream))
			}
			return nil
		})
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(ingested.alerts, want.alerts) {
			return fmt.Errorf("IngestBatch: alert log differs from sequential Observe:\n%+v\nvs\n%+v", ingested.alerts, want.alerts)
		}
		if !reflect.DeepEqual(ingested.snapshots, want.snapshots) {
			return fmt.Errorf("IngestBatch: snapshots differ from sequential Observe:\n%+v\nvs\n%+v", ingested.snapshots, want.snapshots)
		}
		return nil
	})
}

// TestPropMonitorBatchHandoffForms: the batch forms a membership change uses
// — ExportUsers, ImportUsers, RemoveUsers — leave source and destination
// monitors indistinguishable (alert log, Users(), every ExportUser, before and
// after more events) from ExportUser / ImportUser / RemoveUser applied one
// user at a time in any order; re-importing a batch overwrites like
// re-importing each user; and an invalid snapshot anywhere in a batch installs
// nothing from it.
func TestPropMonitorBatchHandoffForms(t *testing.T) {
	proptest.Run(t, func(seed int64, rng *rand.Rand) error {
		s := scenario.Draw(seed)
		p, err := s.Generate()
		if err != nil {
			return err
		}
		users := make([]string, len(s.Profiles))
		for i, profile := range s.Profiles {
			users[i] = profile.ID
		}
		perUser := 1 + (48+len(users)-1)/len(users)
		stream := scenario.RandomEventStream(rng, p, users, perUser)
		half := len(stream) / 2

		// Which users move, and to which of two destinations.
		dest := make(map[string]string)
		for _, id := range users {
			if rng.Intn(3) > 0 {
				dest[id] = fmt.Sprintf("d%d", rng.Intn(2))
			}
		}
		route := func(id string) (string, bool) { d, ok := dest[id]; return d, ok }

		// One fleet: a source holding everyone after the first half of the
		// stream, and two empty destinations.
		type fleet map[string]*runtime.Monitor
		newFleet := func() (fleet, error) {
			f := make(fleet)
			for _, name := range []string{"src", "d0", "d1"} {
				m, err := runtime.NewMonitor(p, runtime.Config{})
				if err != nil {
					return nil, err
				}
				f[name] = m
			}
			for _, profile := range s.Profiles {
				if err := f["src"].RegisterUser(profile); err != nil {
					return nil, err
				}
			}
			f["src"].IngestBatch(stream[:half])
			return f, nil
		}
		// feed sends each event to the monitor holding its user.
		feed := func(f fleet, events []service.Event) {
			for _, ev := range events {
				owner := "src"
				if d, ok := dest[ev.UserID]; ok {
					owner = d
				}
				f[owner].IngestBatch([]service.Event{ev})
			}
		}
		same := func(what string, a, b fleet) error {
			for name := range a {
				if !reflect.DeepEqual(a[name].Alerts(), b[name].Alerts()) {
					return fmt.Errorf("%s: %s alert logs differ", what, name)
				}
				if !reflect.DeepEqual(a[name].Users(), b[name].Users()) {
					return fmt.Errorf("%s: %s holds %v per user, %v batched", what, name, a[name].Users(), b[name].Users())
				}
				for _, id := range users {
					sa, oka := a[name].ExportUser(id)
					sb, okb := b[name].ExportUser(id)
					if oka != okb || !reflect.DeepEqual(sa, sb) {
						return fmt.Errorf("%s: %s snapshot of %s differs: %+v (%v) vs %+v (%v)", what, name, id, sa, oka, sb, okb)
					}
				}
			}
			return nil
		}

		single, err := newFleet()
		if err != nil {
			return err
		}
		batched, err := newFleet()
		if err != nil {
			return err
		}
		// Per user, in a random order.
		var moving []string
		for _, id := range users {
			if _, ok := dest[id]; ok {
				moving = append(moving, id)
			}
		}
		rng.Shuffle(len(moving), func(i, j int) { moving[i], moving[j] = moving[j], moving[i] })
		var singleSnaps []runtime.UserSnapshot
		for _, id := range moving {
			snap, ok := single["src"].ExportUser(id)
			if !ok {
				return fmt.Errorf("user %s missing from the source", id)
			}
			singleSnaps = append(singleSnaps, snap)
			if err := single[dest[id]].ImportUser(snap); err != nil {
				return err
			}
			if !single["src"].RemoveUser(id) {
				return fmt.Errorf("RemoveUser(%s) found nothing", id)
			}
		}
		// Batched: one export, one import per destination, one remove.
		groups := batched["src"].ExportUsers(route)
		exported := 0
		for d, snaps := range groups {
			for _, snap := range snaps {
				if dest[snap.Profile.ID] != d {
					return fmt.Errorf("ExportUsers filed %s under %s, routed to %s", snap.Profile.ID, d, dest[snap.Profile.ID])
				}
			}
			if err := batched[d].ImportUsers(context.Background(), snaps); err != nil {
				return err
			}
			exported += len(snaps)
		}
		if exported != len(moving) {
			return fmt.Errorf("ExportUsers returned %d snapshots for %d routed users", exported, len(moving))
		}
		if got := batched["src"].RemoveUsers(append(moving, "no-such-user")); got != len(moving) {
			return fmt.Errorf("RemoveUsers removed %d of %d users", got, len(moving))
		}
		if err := same("after the move", single, batched); err != nil {
			return err
		}
		feed(single, stream[half:])
		feed(batched, stream[half:])
		if err := same("after the rest of the stream", single, batched); err != nil {
			return err
		}

		// Re-import overwrites: the stale snapshots put every moved user back
		// where the move left them, in both forms.
		for _, snap := range singleSnaps {
			if err := single[dest[snap.Profile.ID]].ImportUser(snap); err != nil {
				return err
			}
		}
		for d, snaps := range groups {
			if err := batched[d].ImportUsers(context.Background(), snaps); err != nil {
				return err
			}
		}
		if err := same("after re-import", single, batched); err != nil {
			return err
		}
		for _, snap := range singleSnaps {
			if got, _ := batched[dest[snap.Profile.ID]].ExportUser(snap.Profile.ID); !reflect.DeepEqual(got, snap) {
				return fmt.Errorf("re-import of %s left %+v, want the imported %+v", snap.Profile.ID, got, snap)
			}
		}

		// One invalid snapshot, anywhere, and the batch installs nothing.
		if len(singleSnaps) > 0 {
			fresh, err := runtime.NewMonitor(p, runtime.Config{})
			if err != nil {
				return err
			}
			bad := append([]runtime.UserSnapshot(nil), singleSnaps...)
			bad[rng.Intn(len(bad))].State = "no-such-state"
			if err := fresh.ImportUsers(context.Background(), bad); err == nil {
				return fmt.Errorf("ImportUsers accepted a snapshot in a state the model does not have")
			}
			if got := fresh.Users(); len(got) != 0 {
				return fmt.Errorf("a rejected batch installed %v", got)
			}
		}
		return nil
	})
}

// TestPropMonitorAlertsAreDesignTimeFindings: what the monitor raises at run
// time is what the design-time assessment found. A random event stream fed
// through IngestBatch raises the same sequence of alert kinds as
// referenceMonitor, carries the same finding on every risk alert and leaves
// every user at the same state; at the default threshold and at LevelLow,
// where risk alerts actually fire. The stream is fed as drawn and again with
// every event of several fields reduced to a random non-empty strict subset
// of them, so a read of some of a label's fields is checked too.
func TestPropMonitorAlertsAreDesignTimeFindings(t *testing.T) {
	proptest.Run(t, func(seed int64, rng *rand.Rand) error {
		s := scenario.Draw(seed)
		p, err := s.Generate()
		if err != nil {
			return err
		}
		users := make([]string, len(s.Profiles))
		for i, profile := range s.Profiles {
			users[i] = profile.ID
		}
		stream := scenario.RandomEventStream(rng, p, users, 1+(48+len(users)-1)/len(users))
		subsets := slices.Clone(stream)
		for i := range subsets {
			fields := subsets[i].Fields
			if len(fields) < 2 {
				continue
			}
			keep := rng.Perm(len(fields))[:1+rng.Intn(len(fields)-1)]
			slices.Sort(keep)
			subsets[i].Fields = make([]string, len(keep))
			for j, k := range keep {
				subsets[i].Fields[j] = fields[k]
			}
		}
		for _, fed := range []struct {
			name   string
			events []service.Event
		}{{"whole fields", stream}, {"field subsets", subsets}} {
			for _, tc := range []struct{ alertAt, want risk.Level }{{0, risk.LevelMedium}, {risk.LevelLow, risk.LevelLow}} {
				monitor, err := runtime.NewMonitor(p, runtime.Config{AlertAt: tc.alertAt})
				if err != nil {
					return err
				}
				for _, profile := range s.Profiles {
					if err := monitor.RegisterUser(profile); err != nil {
						return err
					}
				}
				monitor.IngestBatch(fed.events)
				wantKinds, wantFindings, wantStates, err := referenceMonitor(p, s.Profiles, fed.events, tc.want)
				if err != nil {
					return err
				}
				var kinds []runtime.AlertKind
				var findings []risk.Finding
				for _, a := range monitor.Alerts() {
					kinds = append(kinds, a.Kind)
					if a.Kind == runtime.AlertRisk {
						findings = append(findings, a.Finding)
					}
				}
				if !slices.Equal(kinds, wantKinds) {
					return fmt.Errorf("%s, alert at %v: kinds %v, the design-time reference %v", fed.name, tc.want, kinds, wantKinds)
				}
				if !reflect.DeepEqual(findings, wantFindings) {
					return fmt.Errorf("%s, alert at %v: risk alerts carry findings\n%+v\nthe reference\n%+v", fed.name, tc.want, findings, wantFindings)
				}
				for id, want := range wantStates {
					if got, _ := monitor.CurrentState(id); got != want {
						return fmt.Errorf("%s, alert at %v: user %s ends at %s, the reference at %s", fed.name, tc.want, id, got, want)
					}
				}
			}
		}
		return nil
	})
}

// referenceMonitor replays the stream against the design-time artefacts
// alone (designReference) and returns every alert's kind, every risk alert's
// finding and each user's final state.
func referenceMonitor(p *core.PrivacyLTS, profiles []risk.UserProfile, stream []service.Event, alertAt risk.Level) ([]runtime.AlertKind, []risk.Finding, map[string]lts.StateID, error) {
	ref, err := newDesignReference(p, profiles, alertAt)
	if err != nil {
		return nil, nil, nil, err
	}
	var kinds []runtime.AlertKind
	var raised []risk.Finding
	for _, ev := range stream {
		kind, _, _, finding := ref.step(ev)
		if kind != 0 {
			kinds = append(kinds, kind)
		}
		if finding != nil {
			raised = append(raised, *finding)
		}
	}
	return kinds, raised, ref.cursor, nil
}

// designReference walks users through a privacy LTS with the design-time
// artefacts alone: a linear scan of Graph.Outgoing from each user's cursor
// (same action, actor and datastore, non-empty event fields within the
// label's, declared flows before potential reads, first in insertion order)
// and the Findings of each user's Assessment (the highest Risk per transition
// and actor).
type designReference struct {
	p        *core.PrivacyLTS
	alertAt  risk.Level
	assessed map[string][]risk.Finding
	cursor   map[string]lts.StateID
}

func newDesignReference(p *core.PrivacyLTS, profiles []risk.UserProfile, alertAt risk.Level) (*designReference, error) {
	analyzer, err := risk.NewAnalyzer(risk.Config{})
	if err != nil {
		return nil, err
	}
	ref := &designReference{p: p, alertAt: alertAt, assessed: make(map[string][]risk.Finding), cursor: make(map[string]lts.StateID)}
	for _, profile := range profiles {
		a, err := analyzer.AnalyzeContext(context.Background(), p, profile)
		if err != nil {
			return nil, err
		}
		ref.assessed[profile.ID], ref.cursor[profile.ID] = a.Findings, p.InitialState()
	}
	return ref, nil
}

// step applies one event of a user the reference tracks and returns the kind
// of alert it raised (zero for none), the user's state before it, and for a
// risk alert the transition taken and the finding raised.
func (r *designReference) step(ev service.Event) (kind runtime.AlertKind, from lts.StateID, tr lts.Transition, raised *risk.Finding) {
	from = r.cursor[ev.UserID]
	matched := false
	for _, potential := range []bool{false, true} {
		for _, out := range r.p.Graph.Outgoing(from) {
			label := core.LabelOf(out)
			if !matched && len(ev.Fields) > 0 && label != nil && label.Potential == potential &&
				label.Action == ev.Action && label.Actor == ev.Actor && label.Datastore == ev.Datastore &&
				!slices.ContainsFunc(ev.Fields, func(f string) bool { return !slices.Contains(label.Fields, f) }) {
				tr, matched = out, true
			}
		}
	}
	switch {
	case ev.Denied:
		return runtime.AlertDenied, from, lts.Transition{}, nil
	case !matched:
		return runtime.AlertUnmodelled, from, lts.Transition{}, nil
	}
	r.cursor[ev.UserID] = tr.To
	var best *risk.Finding
	for i, f := range r.assessed[ev.UserID] {
		if f.Transition == tr && f.Actor == ev.Actor && (best == nil || f.Risk > best.Risk) {
			best = &r.assessed[ev.UserID][i]
		}
	}
	if best != nil && best.Risk >= r.alertAt {
		return runtime.AlertRisk, from, tr, best
	}
	return 0, from, tr, nil
}
