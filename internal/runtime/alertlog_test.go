package runtime_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"testing"
	"time"

	"privascope/internal/cluster"
	"privascope/internal/core"
	"privascope/internal/lts"
	"privascope/internal/proptest"
	"privascope/internal/proptest/scenario"
	"privascope/internal/risk"
	"privascope/internal/runtime"
	"privascope/internal/service"
)

// TestPropAlertLogMatchesEagerAlerts: the log, as read, is the log of alerts
// built when they were raised. A random script mixes Observe and IngestBatch
// over a random model's event stream made hostile at random — denied events,
// Fields nil, empty, [""] or holding a NUL byte, strings of separators,
// quotes and format verbs, zero and non-zero times, unregistered users, users
// removed and registered again. The reference builds every alert at raise
// time with the constructors the monitor used when its log held rendered
// alerts (eagerDenied, eagerUnmodelled, eagerRisk), from designReference's
// walk. Each Observation's alerts, Alerts() and every AlertsFor deep-equal
// it, before and after their holders scribble on what they got; at the
// default threshold the monitor is a node's, and its /alerts JSON is the
// reference's byte for byte.
func TestPropAlertLogMatchesEagerAlerts(t *testing.T) {
	hostile := []string{"", "\x00", "a\x00b", `"`, "%v", "%!s(MISSING)", "ü\xff", "x y"}
	pick := func(rng *rand.Rand) string { return hostile[rng.Intn(len(hostile))] }
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
		stream := scenario.RandomEventStream(rng, p, users, 1+(64+len(users)-1)/len(users))
		for i := range stream {
			ev := &stream[i]
			ev.Seq = int64(i + 1)
			if rng.Intn(2) == 0 {
				ev.Time = time.Unix(rng.Int63n(1<<32), rng.Int63n(1e9)).UTC()
			}
			switch rng.Intn(6) {
			case 0:
				ev.Fields = [][]string{nil, {}, {""}, {"\x00"}, {"a\x00b"}}[rng.Intn(5)]
			case 1:
				ev.Actor, ev.Datastore = pick(rng), pick(rng)
			case 2:
				ev.Service, ev.Purpose = pick(rng), pick(rng)
			case 3:
				ev.Denied = true
			case 4:
				if rng.Intn(2) == 0 {
					ev.UserID = "ghost" + pick(rng)
				}
			}
		}
		for _, alertAt := range []risk.Level{0, risk.LevelLow} {
			if err := checkAlertLog(rng, p, s.Profiles, stream, alertAt); err != nil {
				return fmt.Errorf("alert at %v: %w", alertAt, err)
			}
		}
		return nil
	})
}

// checkAlertLog runs one script of stream over a monitor raising at alertAt
// (a node's, at the default threshold) and compares what it reads with the
// eagerly built reference.
func checkAlertLog(rng *rand.Rand, p *core.PrivacyLTS, profiles []risk.UserProfile, stream []service.Event, alertAt risk.Level) error {
	var node *cluster.Node
	var monitor *runtime.Monitor
	if alertAt == 0 {
		n, err := cluster.NewNode(p, cluster.NodeConfig{Name: "n"})
		if err != nil {
			return err
		}
		defer n.Close()
		node, monitor = n, n.Monitor()
	} else {
		m, err := runtime.NewMonitor(p, runtime.Config{AlertAt: alertAt})
		if err != nil {
			return err
		}
		monitor = m
	}
	threshold := alertAt
	if threshold == 0 {
		threshold = risk.LevelMedium
	}
	ref, err := newDesignReference(p, profiles, threshold)
	if err != nil {
		return err
	}
	registered := make(map[string]bool)
	ids := []string{"ghost"}
	for _, profile := range profiles {
		ids = append(ids, profile.ID)
		if err := monitor.RegisterUser(profile); err != nil {
			return err
		}
		registered[profile.ID] = true
	}
	// raise is the reference's side of one event: the alert it raised, if any.
	raise := func(ev service.Event) []runtime.Alert {
		if !registered[ev.UserID] {
			return nil
		}
		ev.Fields = slices.Clone(ev.Fields)
		switch kind, from, tr, finding := ref.step(ev); kind {
		case runtime.AlertDenied:
			return []runtime.Alert{eagerDenied(&ev)}
		case runtime.AlertUnmodelled:
			return []runtime.Alert{eagerUnmodelled(&ev, from)}
		case runtime.AlertRisk:
			return []runtime.Alert{eagerRisk(&ev, *finding, tr)}
		}
		return nil
	}
	var want []runtime.Alert
	for pos := 0; pos < len(stream); {
		if rng.Intn(4) == 0 {
			var gone []string
			for _, profile := range profiles {
				if registered[profile.ID] && rng.Intn(3) == 0 {
					gone, registered[profile.ID] = append(gone, profile.ID), false
				}
			}
			monitor.RemoveUsers(gone)
			for _, profile := range profiles {
				if !registered[profile.ID] && rng.Intn(2) == 0 {
					if err := monitor.RegisterUser(profile); err != nil {
						return err
					}
					registered[profile.ID], ref.cursor[profile.ID] = true, p.InitialState()
				}
			}
		}
		chunk := stream[pos:min(pos+1+rng.Intn(8), len(stream))]
		pos += len(chunk)
		if rng.Intn(2) == 0 {
			for _, ev := range chunk {
				want = append(want, raise(ev)...)
			}
			monitor.IngestBatch(chunk)
			continue
		}
		for _, ev := range chunk {
			raised, known := raise(ev), registered[ev.UserID]
			want = append(want, raised...)
			obs, err := monitor.Observe(ev)
			if known != (err == nil) {
				return fmt.Errorf("Observe of event %d (user %q registered: %v): error %v", ev.Seq, ev.UserID, known, err)
			}
			if !reflect.DeepEqual(obs.Alerts, raised) {
				return fmt.Errorf("Observe of event %d raised\n%#v\nthe reference\n%#v", ev.Seq, obs.Alerts, raised)
			}
			scribble(obs.Alerts)
		}
	}

	check := func(when string) error {
		if got := monitor.Alerts(); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			return fmt.Errorf("%s: Alerts() reads\n%#v\nthe reference\n%#v", when, got, want)
		}
		for _, id := range ids {
			var mine []runtime.Alert
			for _, a := range want {
				if a.UserID == id {
					mine = append(mine, a)
				}
			}
			if got := monitor.AlertsFor(id); !reflect.DeepEqual(got, mine) {
				return fmt.Errorf("%s: AlertsFor(%q) reads\n%#v\nthe reference\n%#v", when, id, got, mine)
			}
		}
		return nil
	}
	if err := check("read"); err != nil {
		return err
	}
	scribble(monitor.Alerts())
	for _, id := range ids {
		scribble(monitor.AlertsFor(id))
	}
	if err := check("read again after its holders scribbled on the alerts"); err != nil {
		return err
	}
	if node == nil {
		return nil
	}
	rec := httptest.NewRecorder()
	node.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/alerts", nil))
	var wire bytes.Buffer
	if err := json.NewEncoder(&wire).Encode(alertsJSON(want)); err != nil {
		return err
	}
	if !bytes.Equal(rec.Body.Bytes(), wire.Bytes()) {
		return fmt.Errorf("/alerts serves\n%s\nthe reference\n%s", rec.Body.Bytes(), wire.Bytes())
	}
	return nil
}

// scribble overwrites every string of every slice the alerts hand out.
func scribble(alerts []runtime.Alert) {
	for i := range alerts {
		a := &alerts[i]
		for _, s := range [][]string{a.Event.Fields, a.Finding.Fields, a.Finding.Scenarios} {
			for j := range s {
				s[j] = "scribbled"
			}
		}
	}
}

// alertsJSON is the reference's side of a node's /alerts wire form.
func alertsJSON(alerts []runtime.Alert) any {
	type alertJSON struct {
		Kind    string        `json:"kind"`
		UserID  string        `json:"user_id"`
		Message string        `json:"message"`
		Risk    string        `json:"risk,omitempty"`
		Event   service.Event `json:"event"`
	}
	out := make([]alertJSON, len(alerts))
	for i, a := range alerts {
		out[i] = alertJSON{Kind: a.Kind.String(), UserID: a.UserID, Message: a.Message, Event: a.Event}
		if a.Kind == runtime.AlertRisk {
			out[i].Risk = a.Risk.String()
		}
	}
	return out
}

// eagerDenied, eagerUnmodelled and eagerRisk are the constructors the monitor
// raised its alerts with when the log held each alert as built.
func eagerDenied(ev *service.Event) runtime.Alert {
	return runtime.Alert{
		Kind:   runtime.AlertDenied,
		UserID: ev.UserID,
		Event:  *ev,
		Message: fmt.Sprintf("access-control denied %s by %q on %s.%v",
			ev.Action, ev.Actor, ev.Datastore, ev.Fields),
	}
}

func eagerUnmodelled(ev *service.Event, cursor lts.StateID) runtime.Alert {
	return runtime.Alert{
		Kind:   runtime.AlertUnmodelled,
		UserID: ev.UserID,
		Event:  *ev,
		Message: fmt.Sprintf("observed %s of %v by %q on %q has no matching transition from state %s; the design model and the running system disagree",
			ev.Action, ev.Fields, ev.Actor, ev.Datastore, cursor),
	}
}

func eagerRisk(ev *service.Event, finding risk.Finding, tr lts.Transition) runtime.Alert {
	finding.Transition = tr
	return runtime.Alert{
		Kind:    runtime.AlertRisk,
		UserID:  ev.UserID,
		Event:   *ev,
		Risk:    finding.Risk,
		Finding: finding,
		Message: fmt.Sprintf("%s-risk disclosure event for user %q: %s", finding.Risk, ev.UserID, finding.Explanation),
	}
}
