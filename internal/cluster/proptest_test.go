package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"privascope/internal/lts"
	"privascope/internal/proptest"
	"privascope/internal/proptest/scenario"
	"privascope/internal/risk"
	"privascope/internal/runtime"
)

// randomNodeNames draws 1..6 distinct node names.
func randomNodeNames(rng *rand.Rand) []string {
	n := 1 + rng.Intn(6)
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("node-%d-%d", rng.Intn(1000), i)
	}
	return names
}

// TestRingPermutationStabilityProperty: the placement is a pure function of
// the node *set* — any permutation of the node list assigns every user to the
// same owner.
func TestRingPermutationStabilityProperty(t *testing.T) {
	proptest.Run(t, func(seed int64, rng *rand.Rand) error {
		names := randomNodeNames(rng)
		base, err := NewRing(names)
		if err != nil {
			return err
		}
		shuffled := append([]string(nil), names...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		permuted, err := NewRing(shuffled)
		if err != nil {
			return err
		}
		for i := 0; i < 500; i++ {
			id := fmt.Sprintf("user-%d-%d", seed, i)
			if a, b := base.Owner(id), permuted.Owner(id); a != b {
				return fmt.Errorf("user %q owned by %q under %v but %q under %v", id, a, names, b, shuffled)
			}
		}
		return nil
	})
}

// withinQuarter reports whether got is within ±25 % of want.
func withinQuarter(got int, want float64) bool {
	return float64(got) >= 0.75*want && float64(got) <= 1.25*want
}

// TestRingMinimalMovementProperty: a membership change moves the users it
// must and no others. A join moves users only to the joiner, and K/(N+1) of
// them within ±25 %; leaving again restores every owner exactly; the leave of
// an original member moves that node's users, K/N of them, and nobody else's.
func TestRingMinimalMovementProperty(t *testing.T) {
	proptest.Run(t, func(seed int64, rng *rand.Rand) error {
		names := randomNodeNames(rng)
		base, err := NewRing(names)
		if err != nil {
			return err
		}
		joined := fmt.Sprintf("joiner-%d", rng.Intn(1000000))
		grown, err := base.WithNode(joined)
		if err != nil {
			return err
		}
		shrunk, err := grown.WithoutNode(joined)
		if err != nil {
			return err
		}
		const users = 3000
		moved := 0
		for i := 0; i < users; i++ {
			id := fmt.Sprintf("user-%d-%d", seed, i)
			before, after := base.Owner(id), grown.Owner(id)
			if before != after {
				if after != joined {
					return fmt.Errorf("join of %q moved user %q from %q to %q (neither is the joiner)",
						joined, id, before, after)
				}
				moved++
			}
			if back := shrunk.Owner(id); back != before {
				return fmt.Errorf("user %q moved from %q to %q across a join+leave round trip", id, before, back)
			}
		}
		if expected := float64(users) / float64(len(grown.Nodes())); !withinQuarter(moved, expected) {
			return fmt.Errorf("join moved %d of %d users across %d nodes; a fair placement moves %.0f ± 25%%",
				moved, users, len(grown.Nodes()), expected)
		}
		// Leave of an original member (the failover direction).
		if len(names) > 1 {
			leaver := names[rng.Intn(len(names))]
			reduced, err := base.WithoutNode(leaver)
			if err != nil {
				return err
			}
			departed := 0
			for i := 0; i < users; i++ {
				id := fmt.Sprintf("user-%d-%d", seed, i)
				before, after := base.Owner(id), reduced.Owner(id)
				switch {
				case before == leaver:
					if after == leaver {
						return fmt.Errorf("user %q still owned by departed node %q", id, leaver)
					}
					departed++
				case before != after:
					return fmt.Errorf("leave of %q moved user %q from %q to %q (untouched users must keep their owner)",
						leaver, id, before, after)
				}
			}
			if expected := float64(users) / float64(len(base.Nodes())); !withinQuarter(departed, expected) {
				return fmt.Errorf("leave moved %d of %d users across %d nodes; a fair placement moves %.0f ± 25%%",
					departed, users, len(base.Nodes()), expected)
			}
		}
		return nil
	})
}

// comparableAlert is an Alert whose event is reduced to what the wire format
// carries (see comparableEvent).
type comparableAlert struct {
	Kind    runtime.AlertKind
	UserID  string
	Event   comparableEvent
	Risk    risk.Level
	Finding risk.Finding
	Message string
}

// comparableEvent is a service.Event with the wall-clock timestamp reduced
// to UnixNano, the resolution the wire format carries.
type comparableEvent struct {
	Seq                                        int64
	TimeNanos                                  int64
	Actor, Datastore, Service, Purpose, UserID string
	Action                                     int
	Fields                                     string
	Denied                                     bool
}

// cursorOf returns the user's current privacy state in m.
func cursorOf(m *runtime.Monitor, userID string) (lts.StateID, bool) {
	snap, ok := m.ExportUser(userID)
	return snap.State, ok
}

// alertsOf returns the alerts m raised for one user, in the order raised.
func alertsOf(m *runtime.Monitor, userID string) []runtime.Alert {
	var out []runtime.Alert
	for _, a := range m.Alerts() {
		if a.UserID == userID {
			out = append(out, a)
		}
	}
	return out
}

func stripAlerts(alerts []runtime.Alert) []comparableAlert {
	out := make([]comparableAlert, len(alerts))
	for i, a := range alerts {
		var nanos int64
		if !a.Event.Time.IsZero() {
			nanos = a.Event.Time.UnixNano()
		}
		out[i] = comparableAlert{
			Kind: a.Kind, UserID: a.UserID, Risk: a.Risk, Finding: a.Finding, Message: a.Message,
			Event: comparableEvent{
				Seq: a.Event.Seq, TimeNanos: nanos,
				Actor: a.Event.Actor, Datastore: a.Event.Datastore,
				Service: a.Event.Service, Purpose: a.Event.Purpose,
				UserID: a.Event.UserID, Action: int(a.Event.Action),
				Fields: fmt.Sprint(a.Event.Fields), Denied: a.Event.Denied,
			},
		}
	}
	return out
}

// TestClusterSingleNodeEquivalenceProperty is the distribution-independence
// property: for random scenarios and event streams, a cluster of N nodes —
// real HTTP/2 servers, binary frames, consistent-hash routing — produces
// exactly the per-user alerts and cursors of one single-process monitor fed
// the same stream directly. This extends the runtime package's
// ingest-path-independence property across the wire path.
func TestClusterSingleNodeEquivalenceProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("spins HTTP servers per round")
	}
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
		perUser := 1 + (64+len(users)-1)/len(users)
		stream := scenario.RandomEventStream(rng, p, users, perUser)

		direct, err := runtime.NewMonitor(p, runtime.Config{})
		if err != nil {
			return err
		}
		for _, profile := range s.Profiles {
			if err := direct.RegisterUser(profile); err != nil {
				return err
			}
		}
		direct.IngestBatch(stream)

		nodes := 1 + rng.Intn(3)
		c, err := StartLocal(p, nodes, NodeConfig{}, RouterConfig{
			tuning: routerTuning{
				// Small frames plus an occasional >1 window exercise the
				// multi-frame path; per-user order survives any window because
				// each user's events ride one sender's FIFO.
				batchEvents: 8,
				maxInFlight: 1 + rng.Intn(2),
			},
		})
		if err != nil {
			return err
		}
		defer c.Stop(context.Background())
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := c.Router.Register(ctx, s.Profiles); err != nil {
			return err
		}
		if err := c.Router.SendBatch(ctx, stream); err != nil {
			return err
		}
		if err := c.Quiesce(ctx); err != nil {
			return err
		}

		ring := c.Router.Ring()
		byName := make(map[string]*Node, len(c.Nodes))
		for _, n := range c.Nodes {
			byName[n.Name()] = n
		}
		for _, id := range users {
			owner := byName[ring.Owner(id)].Monitor()
			gotAlerts := stripAlerts(alertsOf(owner, id))
			wantAlerts := stripAlerts(alertsOf(direct, id))
			if !reflect.DeepEqual(gotAlerts, wantAlerts) {
				return fmt.Errorf("seed %d: alerts for user %s differ across %d nodes:\ncluster: %+v\ndirect:  %+v",
					seed, id, nodes, gotAlerts, wantAlerts)
			}
			gotCursor, ok1 := cursorOf(owner, id)
			wantCursor, ok2 := cursorOf(direct, id)
			if ok1 != ok2 || gotCursor != wantCursor {
				return fmt.Errorf("seed %d: cursor for user %s: cluster %v (%v), direct %v (%v)",
					seed, id, gotCursor, ok1, wantCursor, ok2)
			}
		}
		var clusterStats runtime.IngestStats
		for _, n := range c.Nodes {
			clusterStats.Merge(n.Stats().Ingest)
		}
		if clusterStats.Events != len(stream) {
			return fmt.Errorf("seed %d: cluster ingested %d of %d events", seed, clusterStats.Events, len(stream))
		}
		return nil
	})
}
