package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"privascope/internal/casestudy"
	"privascope/internal/core"
	"privascope/internal/lts"
	"privascope/internal/proptest/scenario"
	"privascope/internal/risk"
	"privascope/internal/runtime"
	"privascope/internal/service"
)

// membershipProfiles builds n registered user profiles (clones of the
// case-study patient under distinct IDs, so every consent shape is valid).
func membershipProfiles(n int) []risk.UserProfile {
	profiles := make([]risk.UserProfile, n)
	for i := range profiles {
		p := casestudy.PatientProfile()
		p.ID = fmt.Sprintf("member-user-%d", i)
		profiles[i] = p
	}
	return profiles
}

// directMonitor replays the stream on a single-process monitor: the ground
// truth every membership scenario must reproduce.
func directMonitor(t testing.TB, profiles []risk.UserProfile, stream []service.Event) *runtime.Monitor {
	t.Helper()
	direct, err := runtime.NewMonitor(surgeryModel(t), runtime.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range profiles {
		if err := direct.RegisterUser(p); err != nil {
			t.Fatal(err)
		}
	}
	direct.IngestBatch(stream)
	return direct
}

// sortedComparable canonicalizes an alert set for cross-deployment equality.
func sortedComparable(alerts []runtime.Alert) []comparableAlert {
	out := stripAlerts(alerts)
	sort.Slice(out, func(i, j int) bool { return fmt.Sprintf("%+v", out[i]) < fmt.Sprintf("%+v", out[j]) })
	return out
}

// requireClusterMatchesDirect quiesces the cluster and checks the full
// equivalence contract against the direct monitor: merged alert set, and
// per-user cursor accounting (the final owner's snapshot — cumulative
// applied-event and alert counters carried across every handoff — must equal
// the uninterrupted monitor's, which proves no accepted event was lost or
// double-applied anywhere along the way).
func requireClusterMatchesDirect(t *testing.T, c *Local, direct *runtime.Monitor, users []string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := c.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	if got, want := sortedComparable(c.Alerts()), sortedComparable(direct.Alerts()); !reflect.DeepEqual(got, want) {
		t.Fatalf("merged cluster alerts differ from the direct monitor:\n got %d: %+v\nwant %d: %+v",
			len(got), got, len(want), want)
	}
	ring := c.Router.Ring()
	byName := make(map[string]*Node, len(c.Nodes))
	for _, n := range c.Nodes {
		byName[n.Name()] = n
	}
	for _, id := range users {
		owner, ok := byName[ring.Owner(id)]
		if !ok {
			t.Fatalf("user %q owned by %q, which is not a live node", id, ring.Owner(id))
		}
		got, ok1 := owner.Monitor().ExportUser(id)
		want, ok2 := direct.ExportUser(id)
		if !ok1 || !ok2 {
			t.Fatalf("user %q: cluster snapshot ok=%v, direct ok=%v", id, ok1, ok2)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("user %q final snapshot differs (cursor accounting):\n got %+v\nwant %+v", id, got, want)
		}
	}
}

// TestClusterLiveJoinRebalances grows a 2-node cluster to 3 mid-stream: the
// join must move the rebalanced users' state, bump the epoch, and leave the
// merged alert set identical to an uninterrupted single monitor.
func TestClusterLiveJoinRebalances(t *testing.T) {
	p := surgeryModel(t)
	profiles := membershipProfiles(12)
	users := make([]string, len(profiles))
	for i, pr := range profiles {
		users[i] = pr.ID
	}
	rng := rand.New(rand.NewSource(7))
	stream := scenario.RandomEventStream(rng, p, users, 24)
	direct := directMonitor(t, profiles, stream)

	c, err := StartLocal(p, 2, NodeConfig{}, RouterConfig{tuning: routerTuning{batchEvents: 5}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop(context.Background())
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := c.Router.Register(ctx, profiles); err != nil {
		t.Fatal(err)
	}
	half := len(stream) / 2
	if err := c.Router.SendBatch(ctx, stream[:half]); err != nil {
		t.Fatal(err)
	}
	if c.Router.Epoch() != 1 {
		t.Fatalf("epoch = %d before any membership change", c.Router.Epoch())
	}
	node, err := c.AddNode(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if c.Router.Epoch() != 2 {
		t.Fatalf("epoch = %d after join, want 2", c.Router.Epoch())
	}
	if got := len(c.Nodes); got != 3 {
		t.Fatalf("live nodes = %d after join", got)
	}
	if err := c.Router.SendBatch(ctx, stream[half:]); err != nil {
		t.Fatal(err)
	}
	requireClusterMatchesDirect(t, c, direct, users)

	// The joiner owns a nontrivial share of a 12-user population and imported
	// each owned user exactly once.
	ring := c.Router.Ring()
	ownedByJoiner := 0
	for _, id := range users {
		if ring.Owner(id) == node.Name() {
			ownedByJoiner++
		}
	}
	if s := node.Stats(); s.HandoffInUsers != int64(ownedByJoiner) || s.FailoverInUsers != 0 {
		t.Fatalf("joiner stats = %+v, want %d rebalance imports", s, ownedByJoiner)
	}
	var out int64
	for _, n := range c.Nodes {
		out += n.Stats().HandoffOutUsers
	}
	if out != int64(ownedByJoiner) {
		t.Fatalf("fleet handed off %d users, joiner imported %d", out, ownedByJoiner)
	}
}

// TestClusterGracefulLeave shrinks 3 nodes to 2 mid-stream: the leaver's
// users move to their new owners, its alert history still counts, and the
// stream completes as if nothing happened.
func TestClusterGracefulLeave(t *testing.T) {
	p := surgeryModel(t)
	profiles := membershipProfiles(12)
	users := make([]string, len(profiles))
	for i, pr := range profiles {
		users[i] = pr.ID
	}
	rng := rand.New(rand.NewSource(11))
	stream := scenario.RandomEventStream(rng, p, users, 24)
	direct := directMonitor(t, profiles, stream)

	c, err := StartLocal(p, 3, NodeConfig{}, RouterConfig{tuning: routerTuning{batchEvents: 5}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop(context.Background())
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := c.Router.Register(ctx, profiles); err != nil {
		t.Fatal(err)
	}
	half := len(stream) / 2
	if err := c.Router.SendBatch(ctx, stream[:half]); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveNode(ctx, "node1"); err != nil {
		t.Fatal(err)
	}
	if c.Router.Epoch() != 2 || len(c.Nodes) != 2 {
		t.Fatalf("epoch %d, %d live nodes after leave", c.Router.Epoch(), len(c.Nodes))
	}
	if err := c.RemoveNode(ctx, "node1"); err == nil {
		t.Fatal("removing a removed node succeeded")
	}
	if err := c.Router.SendBatch(ctx, stream[half:]); err != nil {
		t.Fatal(err)
	}
	requireClusterMatchesDirect(t, c, direct, users)
}

// crashRouterConfig is the router configuration of the tests that crash a
// node. Between the victim's server stopping and the eviction cancelling its
// sender every delivery attempt is refused at once, and a sender that
// runs out of retries in that gap abandons frames nobody can recover. The
// retry budget — at least maxRetries × backoffMax/2 = 10 s, the tests' Stop
// timeout — outlasts the gap; eviction interrupts the backoff, so it costs
// nothing once that happens, and a full window behind the retried sequence
// does not hold the eviction up (TestEvictWithFullWindowCompletes).
func crashRouterConfig() RouterConfig {
	return RouterConfig{
		tuning: routerTuning{
			batchEvents: 5,
			maxRetries:  1000,
			backoffBase: 100 * time.Microsecond,
			backoffMax:  20 * time.Millisecond,
		},
	}
}

// TestClusterEvictFailover crashes a node with frames in flight and evicts
// it: users fail over from their last snapshot, parked frames are re-routed
// with the dead node's stream cursor filtering duplicates, and nothing that
// was accepted anywhere is lost.
func TestClusterEvictFailover(t *testing.T) {
	p := surgeryModel(t)
	profiles := membershipProfiles(12)
	users := make([]string, len(profiles))
	for i, pr := range profiles {
		users[i] = pr.ID
	}
	rng := rand.New(rand.NewSource(13))
	stream := scenario.RandomEventStream(rng, p, users, 24)
	direct := directMonitor(t, profiles, stream)

	c, err := StartLocal(p, 3, NodeConfig{}, crashRouterConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop(context.Background())
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := c.Router.Register(ctx, profiles); err != nil {
		t.Fatal(err)
	}
	half := len(stream) / 2
	if err := c.Router.SendBatch(ctx, stream[:half]); err != nil {
		t.Fatal(err)
	}
	// Crash node2: stop its server with the third quarter still in flight,
	// so the router parks undelivered frames and must re-route them.
	victim := "node2"
	q3 := half + (len(stream)-half)/2
	if err := c.Router.SendBatch(ctx, stream[half:q3]); err != nil {
		t.Fatal(err)
	}
	for i, n := range c.Nodes {
		if n.Name() == victim {
			stopCtx, stopCancel := context.WithTimeout(ctx, 10*time.Second)
			if err := c.Servers[i].Stop(stopCtx); err != nil {
				t.Fatal(err)
			}
			stopCancel()
		}
	}
	if err := c.EvictNode(ctx, victim); err != nil {
		t.Fatal(err)
	}
	if c.Router.Epoch() != 2 || len(c.Nodes) != 2 {
		t.Fatalf("epoch %d, %d live nodes after eviction", c.Router.Epoch(), len(c.Nodes))
	}
	var failedOver int64
	for _, n := range c.Nodes {
		failedOver += n.Stats().FailoverInUsers
	}
	if failedOver == 0 {
		t.Fatal("eviction imported no snapshots with the failover reason")
	}
	if err := c.Router.SendBatch(ctx, stream[q3:]); err != nil {
		t.Fatal(err)
	}
	requireClusterMatchesDirect(t, c, direct, users)
	if stats := c.Router.Stats(); stats.Dropped != 0 {
		t.Fatalf("router dropped %d sequences during failover: %+v", stats.Dropped, stats)
	}
}

// TestClusterAnalysesEachShapeOnce: the nodes of a fleet borrow one
// assessment cache, so 8 profile shapes spread over 3 nodes cost 8 analyses
// through registration, a join, a leave and an eviction, and users of one
// shape on different nodes raise their alerts from the one findings table,
// each alert with a copy of its own.
func TestClusterAnalysesEachShapeOnce(t *testing.T) {
	const shapes, perShape = 8, 6
	p := surgeryModel(t)
	var profiles []risk.UserProfile
	shapeOf := make(map[string]int)
	for k := range shapes {
		for i := range perShape {
			profile := casestudy.PatientProfile()
			profile.ID = fmt.Sprintf("shape-%d-user-%d", k, i)
			profile.DefaultSensitivity = 0.1 + 0.01*float64(k)
			profiles = append(profiles, profile)
			shapeOf[profile.ID] = k
		}
	}
	c, err := StartLocal(p, 3, NodeConfig{}, RouterConfig{tuning: routerTuning{batchEvents: 5}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop(context.Background())
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := c.Router.Register(ctx, profiles); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes {
		held := make(map[int]bool)
		for _, id := range n.Monitor().Users() {
			held[shapeOf[id]] = true
		}
		if len(held) < 2 {
			t.Fatalf("node %q holds %d shapes, want several", n.Name(), len(held))
		}
	}
	if _, err := c.AddNode(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveNode(ctx, "node1"); err != nil {
		t.Fatal(err)
	}
	if err := c.EvictNode(ctx, "node2"); err != nil {
		t.Fatal(err)
	}
	cache := c.nodeCfg.assessments
	if misses := cache.Misses(); misses != shapes {
		t.Fatalf("the fleet analysed %d times, want once per shape: %d", misses, shapes)
	}

	// Every user runs the medical service, then the administrator reads their
	// diagnosis: a risk alert, built from the user's shape's findings.
	var stream []service.Event
	for _, profile := range profiles {
		stream = append(append(stream, casestudy.MedicalServiceEvents(profile.ID)...),
			service.Event{Actor: casestudy.ActorAdministrator, Action: core.ActionRead, Datastore: casestudy.StoreEHR,
				UserID: profile.ID, Fields: []string{casestudy.FieldDiagnosis}})
	}
	if err := c.Router.SendBatch(ctx, stream); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	fleetFinding := make([]*risk.Finding, shapes) // a shape's finding in the fleet's cache
	nodesOf := make([]map[string]bool, shapes)
	alerts := 0
	for _, n := range c.Nodes {
		for _, a := range n.Monitor().Alerts() {
			k := shapeOf[a.UserID]
			if a.Kind != runtime.AlertRisk || len(a.Finding.Fields) == 0 {
				t.Fatalf("user %q raised %s alert %q, want a risk alert", a.UserID, a.Kind, a.Message)
			}
			if fleetFinding[k] == nil {
				_, table, err := cache.AlertFindings(ctx, p, profiles[k*perShape], risk.LevelMedium)
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range *table {
					if f != nil && f.Actor == a.Finding.Actor && reflect.DeepEqual(f.Fields, a.Finding.Fields) {
						fleetFinding[k], nodesOf[k] = f, make(map[string]bool)
					}
				}
			}
			want := *fleetFinding[k]
			want.Transition = a.Finding.Transition
			if !reflect.DeepEqual(a.Finding, want) {
				t.Fatalf("user %q on %q raised an alert not built from its shape's findings in the fleet's cache", a.UserID, n.Name())
			}
			if &a.Finding.Fields[0] == &want.Fields[0] {
				t.Fatalf("user %q on %q raised an alert that shares its finding's Fields with the fleet's cache", a.UserID, n.Name())
			}
			nodesOf[k][n.Name()] = true
			alerts++
		}
	}
	if alerts != len(profiles) {
		t.Fatalf("%d risk alerts, want one per user: %d", alerts, len(profiles))
	}
	spread := 0
	for k := range shapes {
		if len(nodesOf[k]) > 1 {
			spread++
		}
	}
	if spread == 0 {
		t.Fatal("no shape has users on two nodes")
	}
	if misses := cache.Misses(); misses != shapes {
		t.Fatalf("the fleet analysed %d times, want once per shape: %d", misses, shapes)
	}
}

// TestProberEvictsDeadNode wires failure detection end to end: a stopped
// server misses consecutive liveness probes and the prober evicts it; a
// merely draining node is left alone.
func TestProberEvictsDeadNode(t *testing.T) {
	p := surgeryModel(t)
	profiles := membershipProfiles(8)
	users := make([]string, len(profiles))
	for i, pr := range profiles {
		users[i] = pr.ID
	}
	rng := rand.New(rand.NewSource(17))
	stream := scenario.RandomEventStream(rng, p, users, 12)
	direct := directMonitor(t, profiles, stream)

	c, err := StartLocal(p, 3, NodeConfig{}, crashRouterConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop(context.Background())
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := c.Router.Register(ctx, profiles); err != nil {
		t.Fatal(err)
	}
	if err := c.Router.SendBatch(ctx, stream[:len(stream)/2]); err != nil {
		t.Fatal(err)
	}

	evicted := make(chan string, 1)
	prober := c.StartProber(ProberConfig{
		tuning: proberTuning{
			interval: 5 * time.Millisecond,
			// Left to default to the interval, a loaded host makes three
			// healthy probes in a row miss 5 ms and a live node is evicted;
			// the stopped node refuses its connection at once whatever the
			// timeout.
			timeout:  time.Second,
			failures: 3,
		},
		OnEvict: func(name string, err error) {
			if err == nil {
				select {
				case evicted <- name:
				default:
				}
			}
		},
	})
	defer prober.Stop()

	// A draining node is alive: give the prober a few rounds to prove it
	// does not evict one.
	c.Nodes[0].draining.Store(true)
	time.Sleep(50 * time.Millisecond)
	c.Nodes[0].draining.Store(false)
	if got := prober.Stats().Evicted; len(got) != 0 {
		t.Fatalf("prober evicted a draining node: %v", got)
	}

	victim := "node1"
	for i, n := range c.Nodes {
		if n.Name() == victim {
			stopCtx, stopCancel := context.WithTimeout(ctx, 10*time.Second)
			if err := c.Servers[i].Stop(stopCtx); err != nil {
				t.Fatal(err)
			}
			stopCancel()
		}
	}
	select {
	case name := <-evicted:
		if name != victim {
			t.Fatalf("prober evicted %q, want %q", name, victim)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("prober never evicted the dead node; stats %+v", prober.Stats())
	}
	if err := c.Router.SendBatch(ctx, stream[len(stream)/2:]); err != nil {
		t.Fatal(err)
	}
	requireClusterMatchesDirect(t, c, direct, users)
	if s := prober.Stats(); s.Probes == 0 || len(s.Evicted) != 1 {
		t.Fatalf("prober stats = %+v", s)
	}
}

// TestClusterMetricsExposeMembership spot-checks the membership /metrics
// series, and that the handoff counters count membership moves only: a
// registration arrives through /handoff too and must not show up in them.
func TestClusterMetricsExposeMembership(t *testing.T) {
	node := newTestNode(t, NodeConfig{})
	metrics := func() string {
		req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
		w := httptest.NewRecorder()
		node.Handler().ServeHTTP(w, req)
		return w.Body.String()
	}
	body := metrics()
	for _, series := range []string{
		"privascope_node_deduped_frames_total",
		"privascope_node_handoff_in_users_total",
		"privascope_node_handoff_out_users_total",
		"privascope_node_failover_in_users_total",
		"privascope_node_ready",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("metrics output missing %s", series)
		}
	}
	snap := runtime.UserSnapshot{Profile: casestudy.PatientProfile()}
	for _, step := range []struct {
		reason string
		state  lts.StateID
		want   string
	}{
		{ReasonRegister, "", `privascope_node_handoff_in_users_total{node="test-node"} 0`},
		{ReasonRebalance, surgeryModel(t).InitialState(), `privascope_node_handoff_in_users_total{node="test-node"} 1`},
	} {
		snap.State = step.state
		frame, err := EncodeHandoff([]runtime.UserSnapshot{snap})
		if err != nil {
			t.Fatal(err)
		}
		if w := postHandoff(node, frame, step.reason); w.Code != http.StatusOK {
			t.Fatalf("%s handoff returned %d: %s", step.reason, w.Code, w.Body)
		}
		if body := metrics(); !strings.Contains(body, step.want) {
			t.Errorf("after a %s handoff the metrics lack %q:\n%s", step.reason, step.want, body)
		}
	}
}
