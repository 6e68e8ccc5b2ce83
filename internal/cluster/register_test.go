package cluster

import (
	"context"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"privascope/internal/casestudy"
	"privascope/internal/runtime"
)

// TestRegisterFrameCarriesNoState: a registration is the handoff of a fresh
// snapshot, and the node holds it to that — a "register" frame whose snapshot
// names a state or carries a cursor is a 422 that installs nothing, not even
// the well-formed snapshots beside it — while a moved user's frame must still
// name a state of the model: the empty state stays rejected under the
// membership reasons.
func TestRegisterFrameCarriesNoState(t *testing.T) {
	node := newTestNode(t, NodeConfig{})
	initial := surgeryModel(t).InitialState()
	fresh := runtime.UserSnapshot{Profile: casestudy.PatientProfile()}
	other := fresh
	other.Profile.ID = "other-user"
	for name, carried := range map[string]runtime.UserSnapshot{
		"state":   {Profile: other.Profile, State: initial},
		"applied": {Profile: other.Profile, Applied: 1},
		"alerts":  {Profile: other.Profile, Alerts: 1},
	} {
		frame, err := EncodeHandoff([]runtime.UserSnapshot{fresh, carried})
		if err != nil {
			t.Fatal(err)
		}
		if w := postHandoff(node, frame, ReasonRegister); w.Code != http.StatusUnprocessableEntity {
			t.Errorf("register frame carrying %s returned %d, want 422", name, w.Code)
		}
	}
	frame, err := EncodeHandoff([]runtime.UserSnapshot{fresh, other})
	if err != nil {
		t.Fatal(err)
	}
	for _, reason := range []string{ReasonRebalance, ReasonFailover, ""} {
		if w := postHandoff(node, frame, reason); w.Code != http.StatusUnprocessableEntity {
			t.Errorf("%q frame with an empty state returned %d, want 422", reason, w.Code)
		}
	}
	if got := node.Monitor().Users(); len(got) != 0 {
		t.Fatalf("rejected frames installed users %v", got)
	}

	if w := postHandoff(node, frame, ReasonRegister); w.Code != http.StatusOK {
		t.Fatalf("register frame returned %d: %s", w.Code, w.Body)
	}
	for _, id := range []string{fresh.Profile.ID, other.Profile.ID} {
		if got, ok := node.Monitor().ExportUser(id); !ok || got.State != initial || got.Applied != 0 || got.Alerts != 0 {
			t.Errorf("registered user %q = %+v (ok %v), want the initial state and zero cursors", id, got, ok)
		}
	}
	if s := node.Stats(); s.HandoffInUsers != 0 || s.FailoverInUsers != 0 || s.DecodeErrors != 0 {
		t.Fatalf("stats = %+v: registrations are not membership moves, and no frame was malformed", s)
	}
}

// countHandoffs counts the /handoff requests a client sends.
type countHandoffs struct {
	base     http.RoundTripper
	handoffs atomic.Int64
}

func (c *countHandoffs) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == "/handoff" {
		c.handoffs.Add(1)
	}
	return c.base.RoundTrip(req)
}

func (c *countHandoffs) CloseIdleConnections() { closeIdle(c.base) }

// TestRegisterChunksAndResets drives Router.Register down the handoff path:
// 10,000 users bound for one node travel in several bounded chunks and all
// arrive, and registering a user the fleet has already advanced resets them —
// initial state, zero cursors — as re-registration on a single monitor does.
func TestRegisterChunksAndResets(t *testing.T) {
	p := surgeryModel(t)
	ring, err := NewRing([]string{"node0"})
	if err != nil {
		t.Fatal(err)
	}
	profiles := ownedProfiles(ring, map[string]int{"node0": 10000})
	transport := &countHandoffs{base: H2CTransport()}
	c, err := StartLocal(p, 1, NodeConfig{}, RouterConfig{HTTPClient: &http.Client{Transport: transport}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop(context.Background())
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := c.Router.Register(ctx, profiles); err != nil {
		t.Fatal(err)
	}
	if got := transport.handoffs.Load(); got < 3 {
		t.Fatalf("%d users went in %d chunks; the population was meant to need at least 3", len(profiles), got)
	}
	monitor := c.Nodes[0].Monitor()
	if got := len(monitor.Users()); got != len(profiles) {
		t.Fatalf("node0 holds %d users after registration, want %d", got, len(profiles))
	}
	if s := c.Nodes[0].Stats(); s.HandoffInUsers != 0 {
		t.Fatalf("HandoffInUsers = %d after registration alone, want 0: it counts membership moves", s.HandoffInUsers)
	}

	// Advance one user, then register them again through the router.
	user := profiles[0]
	if err := c.Router.SendBatch(ctx, casestudy.MedicalServiceEvents(user.ID)); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	if got, _ := monitor.ExportUser(user.ID); got.Applied == 0 || got.State == p.InitialState() {
		t.Fatalf("user %q did not advance: %+v", user.ID, got)
	}
	if err := c.Router.Register(ctx, profiles[:1]); err != nil {
		t.Fatal(err)
	}
	if got, _ := monitor.ExportUser(user.ID); got.State != p.InitialState() || got.Applied != 0 || got.Alerts != 0 {
		t.Fatalf("re-registered user %q = %+v, want the initial state and zero cursors", user.ID, got)
	}

	// What the encoder refuses never reaches a node.
	bad := user
	bad.DefaultSensitivity = 2
	if err := c.Router.Register(ctx, append(profiles[:1:1], bad)); err == nil {
		t.Fatal("Register accepted a profile with a sensitivity outside [0,1]")
	}
}
