package cluster

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"privascope/internal/casestudy"
	"privascope/internal/cluster/fault"
	"privascope/internal/proptest/scenario"
	"privascope/internal/risk"
	"privascope/internal/runtime"
	"privascope/internal/service"
)

// pickProfiles builds case-study patient profiles under fixed-width IDs —
// every handoff record is then the same size, so chunk capacity is a number —
// taking IDs in sequence until it has want[k] profiles of each key k: tests
// that need an exact number of users in particular places pick them.
func pickProfiles(want map[string]int, key func(userID string) string) []risk.UserProfile {
	var profiles []risk.UserProfile
	have := make(map[string]int)
	missing := 0
	for _, n := range want {
		missing += n
	}
	for i := 0; missing > 0; i++ {
		p := casestudy.PatientProfile()
		p.ID = fmt.Sprintf("owned-user-%07d", i)
		if k := key(p.ID); have[k] < want[k] {
			have[k]++
			missing--
			profiles = append(profiles, p)
		}
	}
	return profiles
}

// ownedProfiles picks profiles so that each node named in want owns exactly
// that many under the ring.
func ownedProfiles(ring *Ring, want map[string]int) []risk.UserProfile {
	return pickProfiles(want, ring.Owner)
}

// ownerMove keys a user by "old owner>new owner" across a ring change.
func ownerMove(t *testing.T, before, after []string) func(userID string) string {
	t.Helper()
	from, err := NewRing(before)
	if err != nil {
		t.Fatal(err)
	}
	to, err := NewRing(after)
	if err != nil {
		t.Fatal(err)
	}
	return func(userID string) string { return from.Owner(userID) + ">" + to.Owner(userID) }
}

func profileIDs(profiles []risk.UserProfile) []string {
	ids := make([]string, len(profiles))
	for i, p := range profiles {
		ids[i] = p.ID
	}
	return ids
}

// holdings snapshots which node holds which users, in what state.
func holdings(c *Local) map[string]map[string]runtime.UserSnapshot {
	out := make(map[string]map[string]runtime.UserSnapshot, len(c.Nodes))
	for _, n := range c.Nodes {
		held := make(map[string]runtime.UserSnapshot)
		for _, id := range n.Monitor().Users() {
			held[id], _ = n.Monitor().ExportUser(id)
		}
		out[n.Name()] = held
	}
	return out
}

// requireOwnedOnly fails when a live node holds a user the ring assigns to
// another node.
func requireOwnedOnly(t *testing.T, c *Local) {
	t.Helper()
	ring := c.Router.Ring()
	for _, n := range c.Nodes {
		for _, id := range n.Monitor().Users() {
			if owner := ring.Owner(id); owner != n.Name() {
				t.Fatalf("node %q holds user %q, which the ring assigns to %q", n.Name(), id, owner)
			}
		}
	}
}

// switchTransport is a RoundTripper whose target is chosen after the cluster
// that uses it has started (a fault schedule needs the servers' addresses).
type switchTransport struct {
	to atomic.Pointer[http.RoundTripper]
}

func newSwitchTransport(rt http.RoundTripper) *switchTransport {
	s := &switchTransport{}
	s.use(rt)
	return s
}

func (s *switchTransport) use(rt http.RoundTripper) { s.to.Store(&rt) }

func (s *switchTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	return (*s.to.Load()).RoundTrip(req)
}

func (s *switchTransport) CloseIdleConnections() { closeIdle(*s.to.Load()) }

// closeIdle passes a client's CloseIdleConnections through a test transport
// to the pool underneath, as the router's tear-down needs.
func closeIdle(rt http.RoundTripper) {
	if c, ok := rt.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

// TestHandoffChunking pins the chunk cutter: whatever the population, every
// chunk is a frame DecodeHandoff accepts within the chunk bound, the chunks
// concatenate to the input in order, and a snapshot too big for the chunk
// bound still travels, alone.
func TestHandoffChunking(t *testing.T) {
	snaps := make([]runtime.UserSnapshot, 9000)
	for i := range snaps {
		p := casestudy.PatientProfile()
		p.ID = fmt.Sprintf("chunk-user-%d", i*i)
		snaps[i] = runtime.UserSnapshot{Profile: p, State: "s0", Applied: int64(i)}
	}
	// One snapshot far over the chunk bound (but under the frame bound).
	big := casestudy.PatientProfile()
	big.ID = "big-user"
	big.Sensitivities = make(map[string]float64)
	for i := 0; i < 30000; i++ {
		big.Sensitivities[fmt.Sprintf("field-%d-%s", i, strings.Repeat("x", 20))] = 0.5
	}
	snaps[4000] = runtime.UserSnapshot{Profile: big, State: "s0"}

	var got []runtime.UserSnapshot
	chunks := 0
	for rest := snaps; len(rest) > 0; chunks++ {
		frame, n, err := encodeHandoffChunk(rest, handoffChunkBytes)
		if err != nil {
			t.Fatalf("chunk %d: %v", chunks, err)
		}
		decoded, err := DecodeHandoff(frame)
		if err != nil {
			t.Fatalf("chunk %d rejected by the decoder: %v", chunks, err)
		}
		if len(decoded) != n || n == 0 {
			t.Fatalf("chunk %d: encoder consumed %d snapshots, frame holds %d", chunks, n, len(decoded))
		}
		if len(frame) > handoffChunkBytes && n != 1 {
			t.Fatalf("chunk %d: %d snapshots in %d bytes, over the %d-byte chunk bound", chunks, n, len(frame), handoffChunkBytes)
		}
		if n < len(rest) && n > 1 {
			// The cut is tight: the next snapshot would not have fitted.
			if wider, _, err := encodeHandoffChunk(rest[:n+1], MaxHandoffBytes); err != nil || len(wider) <= handoffChunkBytes {
				t.Fatalf("chunk %d stopped at %d snapshots though %d fit %d bytes (err %v)", chunks, n, n+1, len(wider), err)
			}
		}
		got = append(got, decoded...)
		rest = rest[n:]
	}
	if chunks < 4 {
		t.Fatalf("%d snapshots went in %d chunks; the population was meant to need several", len(snaps), chunks)
	}
	if len(got) != len(snaps) {
		t.Fatalf("chunks carried %d of %d snapshots", len(got), len(snaps))
	}
	for i := range snaps {
		if got[i].Profile.ID != snaps[i].Profile.ID || got[i].Applied != snaps[i].Applied {
			t.Fatalf("snapshot %d: got user %q applied %d, want %q %d", i, got[i].Profile.ID, got[i].Applied, snaps[i].Profile.ID, snaps[i].Applied)
		}
	}
	// The single-frame form keeps its bounds.
	if _, err := EncodeHandoff(make([]runtime.UserSnapshot, MaxHandoffUsers+1)); err == nil {
		t.Error("EncodeHandoff accepted more than MaxHandoffUsers snapshots")
	}
	many := make([]runtime.UserSnapshot, 40)
	for i := range many {
		many[i] = snaps[4000]
		many[i].Profile.ID = fmt.Sprintf("big-user-%d", i)
	}
	if _, err := EncodeHandoff(many); err == nil {
		t.Error("EncodeHandoff accepted snapshots beyond MaxHandoffBytes")
	}
}

// TestLeaveChunkBoundaries moves 0, 1, exactly one chunk's worth and one more
// than that through a graceful leave: the change reports what it moved and in
// how many frames, every frame is accepted, and the survivor ends with the
// snapshots of an uninterrupted monitor.
func TestLeaveChunkBoundaries(t *testing.T) {
	p := surgeryModel(t)
	ring, err := NewRing([]string{"node0", "node1"})
	if err != nil {
		t.Fatal(err)
	}
	// How many same-sized records fill one chunk.
	probe := ownedProfiles(ring, map[string]int{"node1": 8000})
	probeSnaps := make([]runtime.UserSnapshot, len(probe))
	for i, pr := range probe {
		probeSnaps[i] = runtime.UserSnapshot{Profile: pr, State: p.InitialState()}
	}
	_, perChunk, err := encodeHandoffChunk(probeSnaps, handoffChunkBytes)
	if err != nil || perChunk < 2 || perChunk >= len(probeSnaps) {
		t.Fatalf("a chunk holds %d of %d probe snapshots (err %v)", perChunk, len(probeSnaps), err)
	}
	for _, tc := range []struct{ moved, chunks int }{
		{0, 0}, {1, 1}, {perChunk, 1}, {perChunk + 1, 2},
	} {
		t.Run(fmt.Sprintf("moved=%d", tc.moved), func(t *testing.T) {
			profiles := ownedProfiles(ring, map[string]int{"node0": 3, "node1": tc.moved})
			users := profileIDs(profiles)
			stream := scenario.RandomEventStream(rand.New(rand.NewSource(int64(tc.moved))), p, users[:min(len(users), 40)], 6)
			direct := directMonitor(t, profiles, stream)

			c, err := StartLocal(p, 2, NodeConfig{}, RouterConfig{})
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
			if err := c.RemoveNode(ctx, "node1"); err != nil {
				t.Fatal(err)
			}
			stats := c.Router.Stats()
			last := stats.LastChange
			if last.Kind != ChangeLeave || last.Node != "node1" || last.Epoch != 2 ||
				last.UsersMoved != tc.moved || last.Chunks != tc.chunks {
				t.Fatalf("last change = %+v, want a leave of node1 at epoch 2 moving %d users in %d chunks", last, tc.moved, tc.chunks)
			}
			if stats.Changes != 1 || stats.Frozen <= 0 || last.Total < last.Seal+last.Handoff+last.Teardown {
				t.Fatalf("stats = %+v: want 1 change, frozen time, and a total covering its parts", stats)
			}
			if s := c.Nodes[0].Stats(); s.DecodeErrors != 0 || s.HandoffInUsers != int64(tc.moved) {
				t.Fatalf("survivor stats = %+v, want %d imports and no rejected frame", s, tc.moved)
			}
			if err := c.Router.SendBatch(ctx, stream[len(stream)/2:]); err != nil {
				t.Fatal(err)
			}
			requireClusterMatchesDirect(t, c, direct, users)
		})
	}
}

// TestLeaveOfNodeOverOneFrame retires a node holding more users than one PSHO
// frame may carry (MaxHandoffUsers, and MaxHandoffBytes before that): the
// leave succeeds in chunks and the survivor's snapshots equal a direct
// monitor's. Registering the population in one call crosses the same bounds
// on the way in, which Router.Register must chunk under too.
func TestLeaveOfNodeOverOneFrame(t *testing.T) {
	if testing.Short() {
		t.Skip("registers and moves 70,000 users")
	}
	p := surgeryModel(t)
	ring, err := NewRing([]string{"node0", "node1"})
	if err != nil {
		t.Fatal(err)
	}
	const onLeaver = 70000
	profiles := ownedProfiles(ring, map[string]int{"node0": onLeaver, "node1": 100})
	users := profileIDs(profiles)
	stream := scenario.RandomEventStream(rand.New(rand.NewSource(70)), p, users[:64], 8)
	direct := directMonitor(t, profiles, stream)

	c, err := StartLocal(p, 2, NodeConfig{}, RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop(context.Background())
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := c.Router.Register(ctx, profiles); err != nil {
		t.Fatal(err)
	}
	if got := len(c.Nodes[0].Monitor().Users()); got != onLeaver || onLeaver <= MaxHandoffUsers {
		t.Fatalf("node0 holds %d users, want %d (> MaxHandoffUsers)", got, onLeaver)
	}
	if err := c.Router.SendBatch(ctx, stream[:len(stream)/2]); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveNode(ctx, "node0"); err != nil {
		t.Fatalf("leave of a node holding %d users: %v", onLeaver, err)
	}
	if last := c.Router.Stats().LastChange; last.UsersMoved != onLeaver || last.Chunks < 2 {
		t.Fatalf("last change = %+v, want %d users in several chunks", last, onLeaver)
	}
	if err := c.Router.SendBatch(ctx, stream[len(stream)/2:]); err != nil {
		t.Fatal(err)
	}
	requireClusterMatchesDirect(t, c, direct, users)
}

// TestDepartureSkipsGoawayLinger: on a fleet whose router holds a warm pooled
// h2c connection to every node, a graceful leave and an eviction each return
// in well under the second an HTTP/2 server lingers after its GOAWAY — the
// router closes its side first — and the evicted node's listener is closed
// when EvictNode returns. Runs on the bare h2c client and on one wrapped by
// the fault injector, which must pass the connection close through.
func TestDepartureSkipsGoawayLinger(t *testing.T) {
	const linger = 500 * time.Millisecond
	clients := map[string]func() *http.Client{
		"h2c":           func() *http.Client { return nil },
		"fault-wrapped": func() *http.Client { return &http.Client{Transport: fault.New(H2CTransport(), fault.Config{})} },
	}
	for name, client := range clients {
		t.Run(name, func(t *testing.T) {
			p := surgeryModel(t)
			// Users on both nodes now, and on both again once node1 has left
			// and node2 has joined.
			profiles := pickProfiles(
				map[string]int{"node0>node0": 6, "node0>node2": 6, "node1>node0": 6, "node1>node2": 6},
				ownerMove(t, []string{"node0", "node1"}, []string{"node0", "node2"}))
			users := profileIDs(profiles)
			stream := scenario.RandomEventStream(rand.New(rand.NewSource(5)), p, users, 12)
			direct := directMonitor(t, profiles, stream)

			c, err := StartLocal(p, 2, NodeConfig{}, RouterConfig{tuning: routerTuning{batchEvents: 5, client: client()}})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Stop(context.Background())
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			if err := c.Router.Register(ctx, profiles); err != nil {
				t.Fatal(err)
			}
			third := len(stream) / 3
			warm := func(events []service.Event) {
				t.Helper()
				if err := c.Router.SendBatch(ctx, events); err != nil {
					t.Fatal(err)
				}
				if err := c.Quiesce(ctx); err != nil {
					t.Fatal(err)
				}
				for _, n := range c.Nodes {
					if n.Stats().Frames == 0 {
						t.Fatalf("node %q received no frame: its connection is not warm", n.Name())
					}
				}
			}

			warm(stream[:third])
			t0 := time.Now()
			if err := c.RemoveNode(ctx, "node1"); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(t0); d >= linger {
				t.Fatalf("RemoveNode took %v on a warm fleet, want < %v", d, linger)
			}
			if last := c.Router.Stats().LastChange; last.Kind != ChangeLeave || last.Teardown >= linger {
				t.Fatalf("last change = %+v, want a leave with a short teardown", last)
			}

			if _, err := c.AddNode(ctx); err != nil {
				t.Fatal(err)
			}
			warm(stream[third : 2*third])
			victim := c.Servers[0]
			t0 = time.Now()
			if err := c.EvictNode(ctx, victim.Node().Name()); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(t0); d >= linger {
				t.Fatalf("EvictNode took %v on a warm fleet, want < %v", d, linger)
			}
			if conn, err := net.DialTimeout("tcp", strings.TrimPrefix(victim.URL(), "http://"), time.Second); err == nil {
				conn.Close()
				t.Fatal("the evicted node's listener still accepts connections")
			}
			if last := c.Router.Stats().LastChange; last.Kind != ChangeEvict || last.Node != victim.Node().Name() {
				t.Fatalf("last change = %+v, want the eviction of %q", last, victim.Node().Name())
			}

			if err := c.Router.SendBatch(ctx, stream[2*third:]); err != nil {
				t.Fatal(err)
			}
			requireClusterMatchesDirect(t, c, direct, users)
		})
	}
}

// TestDepartureWithProberSkipsGoawayLinger: a running failure detector must
// not bring the linger back. The prober used to dial its own client, so the
// leaving server's GOAWAY still had that connection to wait a second for.
func TestDepartureWithProberSkipsGoawayLinger(t *testing.T) {
	c, err := StartLocal(surgeryModel(t), 2, NodeConfig{}, RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop(context.Background())
	// The ticker never fires: rounds are driven by hand, so the probe
	// connections are warm and no probe is in flight during the departure.
	prober := c.StartProber(ProberConfig{tuning: proberTuning{interval: time.Hour, timeout: time.Second}})
	defer prober.Stop()
	prober.round()
	if s := prober.Stats(); s.Probes != 2 || s.Failures != 0 {
		t.Fatalf("prober stats = %+v, want 2 successful probes", s)
	}
	t0 := time.Now()
	if err := c.RemoveNode(context.Background(), "node1"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d >= 500*time.Millisecond {
		t.Fatalf("RemoveNode took %v with a prober running, want well under the GOAWAY second", d)
	}
}

// TestAbortedChangeLeavesFleetUnchanged fails one destination's handoff past
// every retry, for a join and for a leave: the change returns an error with
// the ring, the epoch, every node's users and every snapshot as they were —
// the copies other destinations had already imported are gone again — and the
// same change succeeds once the fault has passed.
func TestAbortedChangeLeavesFleetUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the handoff retry backoff")
	}
	p := surgeryModel(t)
	changes := map[string]struct {
		nodes int
		// users places the population: "owner before>owner after" -> count.
		users         map[string]int
		before, after []string
		// schedule picks the fault once the fleet is up; apply is the change.
		schedule func(c *Local) fault.Config
		apply    func(ctx context.Context, c *Local) error
	}{
		// Both sources hand off to the joiner: its first frame lands, every
		// later one — the other source's, through all its retries — is lost.
		"join": {
			nodes:  2,
			users:  map[string]int{"node0>node0": 10, "node1>node1": 10, "node0>node2": 10, "node1>node2": 10},
			before: []string{"node0", "node1"}, after: []string{"node0", "node1", "node2"},
			schedule: func(*Local) fault.Config {
				return fault.Config{Paths: []string{"/handoff"}, Partitions: []fault.Partition{{From: 1, To: 64}}}
			},
			apply: func(ctx context.Context, c *Local) error { _, err := c.AddNode(ctx); return err },
		},
		// The leaver hands off to two survivors: node0 is unreachable, node2
		// imports its share and must give it back.
		"leave": {
			nodes:  3,
			users:  map[string]int{"node0>node0": 10, "node2>node2": 10, "node1>node0": 10, "node1>node2": 10},
			before: []string{"node0", "node1", "node2"}, after: []string{"node0", "node2"},
			schedule: func(c *Local) fault.Config {
				host := strings.TrimPrefix(c.Servers[0].URL(), "http://")
				return fault.Config{Paths: []string{"/handoff"}, Partitions: []fault.Partition{{Host: host, From: 0, To: 64}}}
			},
			apply: func(ctx context.Context, c *Local) error { return c.RemoveNode(ctx, "node1") },
		},
	}
	for name, change := range changes {
		t.Run(name, func(t *testing.T) {
			profiles := pickProfiles(change.users, ownerMove(t, change.before, change.after))
			users := profileIDs(profiles)
			stream := scenario.RandomEventStream(rand.New(rand.NewSource(23)), p, users, 10)
			direct := directMonitor(t, profiles, stream)

			// One connection pool under every schedule, so the router's
			// tear-down reaches the connections whichever is in use.
			base := H2CTransport()
			transport := newSwitchTransport(base)
			c, err := StartLocal(p, change.nodes, NodeConfig{}, RouterConfig{
				tuning: routerTuning{
					batchEvents: 5,
					client:      &http.Client{Transport: transport},
				},
			})
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
			if err := c.Quiesce(ctx); err != nil {
				t.Fatal(err)
			}
			before, ringBefore := holdings(c), c.Router.Ring()

			injector := fault.New(base, change.schedule(c))
			transport.use(injector)
			if err := change.apply(ctx, c); err == nil {
				t.Fatal("the change succeeded although a destination never acknowledged its handoff")
			}
			if s := injector.Stats(); s.Partitioned == 0 || s.Passed == 0 {
				t.Fatalf("injector stats %+v: want a handoff delivered and another lost", s)
			}
			if c.Router.Epoch() != 1 || c.Router.Ring() != ringBefore || len(c.Nodes) != change.nodes {
				t.Fatalf("aborted change moved the ring: epoch %d, %d live nodes", c.Router.Epoch(), len(c.Nodes))
			}
			if stats := c.Router.Stats(); stats.Changes != 0 || stats.Frozen <= 0 {
				t.Fatalf("stats after the aborted change = %+v, want no completed change but frozen time", stats)
			}
			if after := holdings(c); !reflect.DeepEqual(after, before) {
				t.Fatalf("aborted change left different holdings:\n got %v\nwant %v", after, before)
			}
			requireOwnedOnly(t, c)
			for _, n := range c.Nodes {
				if !n.Stats().Ready {
					t.Fatalf("node %q still reports not-ready after the aborted change", n.Name())
				}
			}

			transport.use(base)
			if err := change.apply(ctx, c); err != nil {
				t.Fatalf("retry after the fault passed: %v", err)
			}
			if c.Router.Epoch() != 2 {
				t.Fatalf("epoch = %d after the retried change, want 2", c.Router.Epoch())
			}
			requireOwnedOnly(t, c)
			if err := c.Router.SendBatch(ctx, stream[len(stream)/2:]); err != nil {
				t.Fatal(err)
			}
			requireClusterMatchesDirect(t, c, direct, users)
		})
	}
}

// holdHandoff stages the abort race: the first /handoff to holdHost is
// delivered under a context of its own, as a chunk the server already has all
// of, minus its last byte — so the node is serving it, mid-read — and only
// then do /handoff requests to failHost start failing. When that failure
// cancels the held request, its sender is told so at once, as by the real
// transport; the last byte follows a little later, and the import with it.
type holdHandoff struct {
	base               http.RoundTripper
	failHost, holdHost string
	serving            func() bool // the held node has a handoff in progress
	hold               sync.Once
	entered            chan struct{}
	delivered          chan error // the held request's outcome at the node
}

func (h *holdHandoff) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != "/handoff" {
		return h.base.RoundTrip(req)
	}
	held := false
	if req.URL.Host == h.holdHost {
		h.hold.Do(func() { held = true })
	}
	switch {
	case held:
		frame, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
		body, last := io.Pipe()
		fwd, err := http.NewRequest(http.MethodPost, req.URL.String(), body)
		if err != nil {
			return nil, err
		}
		fwd.Header = req.Header.Clone()
		fwd.ContentLength = int64(len(frame))
		go func() {
			resp, err := h.base.RoundTrip(fwd)
			if err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("held handoff answered %s", resp.Status)
				}
			}
			h.delivered <- err
		}()
		if _, err := last.Write(frame[:len(frame)-1]); err != nil {
			return nil, err
		}
		for !h.serving() {
			time.Sleep(time.Millisecond)
		}
		close(h.entered)
		<-req.Context().Done()
		go func() {
			time.Sleep(50 * time.Millisecond)
			_, _ = last.Write(frame[len(frame)-1:])
			last.Close()
		}()
		return nil, req.Context().Err()
	case req.URL.Host == h.failHost:
		<-h.entered
		req.Body.Close()
		return nil, fmt.Errorf("holdHandoff: connection to %s refused", h.failHost)
	}
	return h.base.RoundTrip(req)
}

func (h *holdHandoff) CloseIdleConnections() { closeIdle(h.base) }

// TestAbortWaitsForChunkInFlight: when one destination's failure aborts a
// change, a chunk another destination had already received is still imported
// after its sender was cancelled. The rollback must come after that import,
// not before it — or the node keeps users it does not own.
func TestAbortWaitsForChunkInFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the handoff retry backoff")
	}
	p := surgeryModel(t)
	before, after := []string{"node0", "node1", "node2"}, []string{"node0", "node2"}
	profiles := pickProfiles(
		map[string]int{"node0>node0": 10, "node2>node2": 10, "node1>node0": 10, "node1>node2": 10},
		ownerMove(t, before, after))
	users := profileIDs(profiles)
	stream := scenario.RandomEventStream(rand.New(rand.NewSource(29)), p, users, 10)
	direct := directMonitor(t, profiles, stream)

	base := H2CTransport()
	transport := newSwitchTransport(base)
	c, err := StartLocal(p, 3, NodeConfig{}, RouterConfig{tuning: routerTuning{batchEvents: 5, client: &http.Client{Transport: transport}}})
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
	if err := c.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	held, ringBefore := holdings(c), c.Router.Ring()

	node2 := c.Nodes[2]
	race := &holdHandoff{
		base:      base,
		failHost:  strings.TrimPrefix(c.Servers[0].URL(), "http://"),
		holdHost:  strings.TrimPrefix(c.Servers[2].URL(), "http://"),
		serving:   func() bool { return node2.receiving.Load() > 0 },
		entered:   make(chan struct{}),
		delivered: make(chan error, 1),
	}
	transport.use(race)
	if err := c.RemoveNode(ctx, "node1"); err == nil {
		t.Fatal("the leave succeeded although node0 never acknowledged its handoff")
	}
	// The held chunk does get imported; what matters is that the rollback
	// came after it.
	if err := <-race.delivered; err != nil {
		t.Fatalf("the held chunk was not imported: %v", err)
	}
	if c.Router.Epoch() != 1 || c.Router.Ring() != ringBefore {
		t.Fatalf("aborted leave moved the ring: epoch %d", c.Router.Epoch())
	}
	if got := holdings(c); !reflect.DeepEqual(got, held) {
		t.Fatalf("aborted leave left different holdings:\n got %v\nwant %v", got, held)
	}
	requireOwnedOnly(t, c)

	transport.use(base)
	if err := c.RemoveNode(ctx, "node1"); err != nil {
		t.Fatalf("retry after the fault passed: %v", err)
	}
	if err := c.Router.SendBatch(ctx, stream[len(stream)/2:]); err != nil {
		t.Fatal(err)
	}
	requireClusterMatchesDirect(t, c, direct, users)
}

// refuseIngest fails every /ingest request to one host at once, the way a
// stopped server refuses connections; everything else passes.
type refuseIngest struct {
	base http.RoundTripper
	host atomic.Pointer[string]
}

func (r *refuseIngest) RoundTrip(req *http.Request) (*http.Response, error) {
	if host := r.host.Load(); host != nil && req.URL.Host == *host && req.URL.Path == "/ingest" {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, fmt.Errorf("refuseIngest: connection to %s refused", *host)
	}
	return r.base.RoundTrip(req)
}

func (r *refuseIngest) CloseIdleConnections() { closeIdle(r.base) }

// TestEvictWithFullWindowCompletes: with a node refusing its frames, the
// victim's sender retries its sequence on the wire for as long as its retry
// budget lasts (at least 10 s), while its one-frame window fills behind it
// and more events wait in its buffer. None of that may hold up an eviction,
// the one thing that can resolve those frames: EvictNode returns promptly and
// every buffered, queued and in-flight event is re-routed, none dropped.
func TestEvictWithFullWindowCompletes(t *testing.T) {
	p := surgeryModel(t)
	ring, err := NewRing([]string{"node0", "node1"})
	if err != nil {
		t.Fatal(err)
	}
	profiles := ownedProfiles(ring, map[string]int{"node0": 12, "node1": 12})
	users := profileIDs(profiles)
	stream := scenario.RandomEventStream(rand.New(rand.NewSource(31)), p, users, 12)
	direct := directMonitor(t, profiles, stream)
	// The victim's events are sent apart, in slices that stage its sender;
	// each user keeps its own order, which is all the monitors compare.
	var victims, others []service.Event
	for _, ev := range stream {
		if ring.Owner(ev.UserID) == "node1" {
			victims = append(victims, ev)
		} else {
			others = append(others, ev)
		}
	}

	transport := &refuseIngest{base: H2CTransport()}
	c, err := StartLocal(p, 2, NodeConfig{}, RouterConfig{
		tuning: routerTuning{
			batchEvents: 4,
			maxInFlight: 1,
			maxRetries:  1000,
			backoffBase: time.Millisecond,
			backoffMax:  20 * time.Millisecond,
			client:      &http.Client{Transport: transport},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop(context.Background())
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := c.Router.Register(ctx, profiles); err != nil {
		t.Fatal(err)
	}
	victim := c.Servers[1]
	host := strings.TrimPrefix(victim.URL(), "http://")
	transport.host.Store(&host)

	sender := func() senderCounts { return c.Router.senderCounts()[victim.Node().Name()] }
	// One event goes out alone on the idle wire and is retried forever; two
	// frames cut at the batch threshold fill the window behind it (one more
	// than the window may wait); three events stay buffered, one short of
	// the cut that would block.
	if err := c.Router.SendBatch(ctx, victims[:1]); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the first frame to be retried", func() bool { return c.Router.Stats().Retries > 0 })
	if err := c.Router.SendBatch(ctx, victims[1:12]); err != nil {
		t.Fatal(err)
	}
	if n := sender(); n != (senderCounts{Wire: 1, Queued: 2, Buffered: 3}) {
		t.Fatalf("victim sender = %+v, want 1 frame on the wire, 2 waiting and 3 events buffered", n)
	}

	t0 := time.Now()
	if err := c.EvictNode(ctx, victim.Node().Name()); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d > 2*time.Second {
		t.Fatalf("EvictNode took %v behind a full window", d)
	}
	if err := c.Router.SendBatch(ctx, append(others, victims[12:]...)); err != nil {
		t.Fatal(err)
	}
	requireClusterMatchesDirect(t, c, direct, users)
	if stats := c.Router.Stats(); stats.DroppedEvents != 0 || stats.ReroutedEvents != 12 || stats.FailoverSkippedFrames != 0 {
		t.Fatalf("router stats = %+v, want the victim's 12 events re-routed and none dropped", stats)
	}
}
