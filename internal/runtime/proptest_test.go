package runtime_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"privascope/internal/proptest"
	"privascope/internal/proptest/scenario"
	"privascope/internal/runtime"
	"privascope/internal/service"
	"privascope/internal/synth"
)

// TestPropMonitorIngestPathIndependence generalises the fixed-model
// TestObserveBatchMatchesSequentialObserve to random scenarios: one random
// per-user event script fed through sequential Observe calls, ObserveBatch
// and IngestBatch must leave the same alert log, the same cursors and the
// same ExportUser snapshots, and the two entry points that return
// observations must return the same ones.
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
		stream := synth.RandomEventStream(rng, p, users, perUser)

		type result struct {
			observations []runtime.Observation
			alerts       []runtime.Alert
			snapshots    []runtime.UserSnapshot
		}
		runWith := func(path string, feed func(*runtime.Monitor) ([]runtime.Observation, error)) (result, error) {
			monitor, err := runtime.NewMonitor(p, runtime.Config{})
			if err != nil {
				return result{}, err
			}
			for _, profile := range s.Profiles {
				if err := monitor.RegisterUser(profile); err != nil {
					return result{}, err
				}
			}
			obs, err := feed(monitor)
			if err != nil {
				return result{}, fmt.Errorf("%s: %w", path, err)
			}
			res := result{observations: obs, alerts: monitor.Alerts()}
			for _, id := range users {
				snap, ok := monitor.ExportUser(id)
				if !ok {
					return result{}, fmt.Errorf("%s: user %s has no state", path, id)
				}
				res.snapshots = append(res.snapshots, snap)
			}
			return res, nil
		}

		want, err := runWith("Observe", func(m *runtime.Monitor) ([]runtime.Observation, error) {
			var out []runtime.Observation
			for _, ev := range stream {
				obs, err := m.Observe(ev)
				if err != nil {
					return nil, err
				}
				out = append(out, obs)
			}
			return out, nil
		})
		if err != nil {
			return err
		}
		batched, err := runWith("ObserveBatch", func(m *runtime.Monitor) ([]runtime.Observation, error) {
			return m.ObserveBatch(stream)
		})
		if err != nil {
			return err
		}
		ingested, err := runWith("IngestBatch", func(m *runtime.Monitor) ([]runtime.Observation, error) {
			if stats := m.IngestBatch(stream); stats.Events != len(stream) || stats.Unregistered != 0 {
				return nil, fmt.Errorf("stats %+v for %d events of registered users", stats, len(stream))
			}
			return nil, nil
		})
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(batched.observations, want.observations) {
			return fmt.Errorf("ObserveBatch: observations differ from sequential Observe")
		}
		for path, got := range map[string]result{"ObserveBatch": batched, "IngestBatch": ingested} {
			if !reflect.DeepEqual(got.alerts, want.alerts) {
				return fmt.Errorf("%s: alert log differs from sequential Observe:\n%+v\nvs\n%+v", path, got.alerts, want.alerts)
			}
			if !reflect.DeepEqual(got.snapshots, want.snapshots) {
				return fmt.Errorf("%s: snapshots differ from sequential Observe:\n%+v\nvs\n%+v", path, got.snapshots, want.snapshots)
			}
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
		stream := synth.RandomEventStream(rng, p, users, perUser)
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
