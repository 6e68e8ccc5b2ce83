package runtime_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"privascope/internal/proptest"
	"privascope/internal/proptest/scenario"
	"privascope/internal/runtime"
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
