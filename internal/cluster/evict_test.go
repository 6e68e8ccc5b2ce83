package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"privascope/internal/casestudy"
	"privascope/internal/cluster/fault"
	"privascope/internal/risk"
	"privascope/internal/service"
	"privascope/internal/synth"
)

// blackHoleFleet is the fixture of the two black-hole tests: a 2-node fleet
// with 12 users on each node, half the stream delivered and applied, and then
// node1's /ingest swallowing every request without ever answering. A failed
// test skips the fleet's graceful stop: where the defect is present a request
// hangs for good, and so would Router.Close behind it.
type blackHoleFleet struct {
	c        *Local
	victim   string
	injector *fault.Transport
	users    []string
	profiles []risk.UserProfile
	rest     []service.Event // the half of the stream not yet sent
	stream   []service.Event
}

func startBlackHoleFleet(t *testing.T, ctx context.Context, cfg RouterConfig) *blackHoleFleet {
	t.Helper()
	p := surgeryModel(t)
	ring, err := NewRing([]string{"node0", "node1"})
	if err != nil {
		t.Fatal(err)
	}
	f := &blackHoleFleet{victim: "node1"}
	f.profiles = ownedProfiles(ring, map[string]int{"node0": 12, "node1": 12})
	f.users = profileIDs(f.profiles)
	f.stream = synth.RandomEventStream(rand.New(rand.NewSource(37)), p, f.users, 12)

	base := H2CTransport()
	transport := newSwitchTransport(base)
	cfg.HTTPClient = &http.Client{Transport: transport}
	if f.c, err = StartLocal(p, 2, NodeConfig{}, cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if !t.Failed() {
			_ = f.c.Stop(context.Background())
		}
	})
	if err := f.c.Router.Register(ctx, f.profiles); err != nil {
		t.Fatal(err)
	}
	half := len(f.stream) / 2
	if err := f.c.Router.SendBatch(ctx, f.stream[:half]); err != nil {
		t.Fatal(err)
	}
	if err := f.c.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	f.rest = f.stream[half:]
	host := strings.TrimPrefix(f.c.Servers[1].URL(), "http://")
	f.injector = fault.New(base, fault.Config{
		Paths: []string{"/ingest"},
		Hang:  []fault.Partition{{Host: host, From: 0, To: math.MaxUint64}},
	})
	transport.use(f.injector)
	return f
}

// evictWithin runs the eviction under a guard of its own, so that a fleet
// with the defect fails the test instead of hanging the test binary, and
// returns how long the eviction took.
func (f *blackHoleFleet) evictWithin(t *testing.T, ctx context.Context, guard time.Duration) time.Duration {
	t.Helper()
	ctx, cancel := context.WithTimeout(ctx, guard)
	defer cancel()
	done := make(chan error, 1)
	t0 := time.Now()
	go func() { done <- f.c.EvictNode(ctx, f.victim) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("evicting the black-holed node: %v", err)
		}
	case <-time.After(guard + time.Second):
		t.Fatalf("EvictNode still has not returned %v after its context ended", time.Second)
	}
	return time.Since(t0)
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEvictBlackHoledNode: a node that accepts its /ingest request and never
// answers holds the sender in that request. Evicting it cancels the sender's
// context, which aborts the request: the eviction returns at once instead of
// waiting for a transport timeout that does not exist, and the sequence that
// was in flight is re-routed, not lost.
func TestEvictBlackHoledNode(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	// Only the tick cuts frames, so SendBatch never waits on the victim's
	// window: one sequence hangs in flight, a frame waits in the window, the
	// rest stays buffered.
	f := startBlackHoleFleet(t, ctx, RouterConfig{BatchEvents: 4096, FlushInterval: 5 * time.Millisecond})
	direct := directMonitor(t, f.profiles, f.stream)
	q := len(f.rest) / 2
	if err := f.c.Router.SendBatch(ctx, f.rest[:q]); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "a sequence to hang in flight", func() bool { return f.injector.Stats().Hung == 1 })

	if d := f.evictWithin(t, ctx, 5*time.Second); d >= time.Second {
		t.Fatalf("EvictNode took %v with a request hanging on the victim, want well under a second", d)
	}
	if err := f.c.Router.SendBatch(ctx, f.rest[q:]); err != nil {
		t.Fatal(err)
	}
	requireClusterMatchesDirect(t, f.c, direct, f.users)
	if stats := f.c.Router.Stats(); stats.Dropped != 0 || stats.ReroutedEvents == 0 {
		t.Fatalf("router stats = %+v, want the hung sequence re-routed and nothing dropped", stats)
	}
}

// TestEvictWhileSendBlockedOnDeadWindow: with the victim's one-frame window
// full behind a hung request, a Send that reaches the batch threshold waits
// for room holding the membership lock shared. The eviction cancels the
// sender before it asks for the lock exclusively, so that Send parks its
// frame and lets go: the eviction completes, the blocked SendBatch carries on
// under the new ring, and the frames parked from three places — the request,
// the window, the cut — are re-routed in stream order.
func TestEvictWhileSendBlockedOnDeadWindow(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	f := startBlackHoleFleet(t, ctx, RouterConfig{
		BatchEvents:   2,
		FlushInterval: time.Hour,
		// Nothing but the eviction may resolve the victim's frames.
		MaxRetries:  1000,
		BackoffBase: time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
	})
	direct := directMonitor(t, f.profiles, f.stream)
	f.c.Router.memberMu.RLock()
	sender := f.c.Router.senders[f.victim]
	f.c.Router.memberMu.RUnlock()

	// The victim's first frame leaves alone and hangs; behind it one frame
	// fills the window and the next cut waits for room.
	first, owned := 0, 0
	for ring := f.c.Router.Ring(); owned < 2; first++ {
		if ring.Owner(f.rest[first].UserID) == f.victim {
			owned++
		}
	}
	if err := f.c.Router.SendBatch(ctx, f.rest[:first]); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the victim's first frame to hang in flight", func() bool { return f.injector.Stats().Hung == 1 })
	sent := make(chan error, 1)
	go func() { sent <- f.c.Router.SendBatch(ctx, f.rest[first:]) }()
	waitUntil(t, "a Send to block on the victim's full window", func() bool {
		return sender.pending.Load() == 3 && len(sender.frames) == 1
	})
	select {
	case err := <-sent:
		t.Fatalf("SendBatch returned (%v) with the victim's window full", err)
	default:
	}

	f.evictWithin(t, ctx, 5*time.Second)
	select {
	case err := <-sent:
		if err != nil {
			t.Fatalf("the blocked SendBatch failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the blocked SendBatch never returned after the eviction")
	}
	requireClusterMatchesDirect(t, f.c, direct, f.users)
	if stats := f.c.Router.Stats(); stats.DroppedEvents != 0 || stats.ReroutedEvents == 0 {
		t.Fatalf("router stats = %+v, want events re-routed and none dropped", stats)
	}
}

// abandonedIngest stages the race an eviction's fence closes. The victim's
// /ingest is served in process, through Node.Handler, from a pipe: the
// request that carries two frames has its first frame delivered and admitted,
// then fails at the client — as when a connection breaks or the router aborts
// the request — while its handler lives on, waiting for the rest of the body.
// That rest arrives when the eviction posts its first /handoff: after the
// victim's users were exported, before its stream cursor is read.
type abandonedIngest struct {
	base   http.RoundTripper
	host   string // the victim's
	victim *Node

	mu        sync.Mutex
	requests  int
	second    []byte         // the abandoned request's second frame
	body      *io.PipeWriter // the abandoned request's body, still open
	served    chan int       // the abandoned handler's status, once it returns
	status    int            // that status, once the eviction has waited for it
	warm      chan struct{}  // closed when the first /ingest has arrived
	release   chan struct{}  // closed to let the first /ingest through
	abandoned chan struct{}  // closed when the two-frame request has failed
}

func (a *abandonedIngest) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Host == a.host && req.URL.Path == "/ingest" {
		a.mu.Lock()
		n := a.requests
		a.requests++
		a.mu.Unlock()
		switch n {
		case 0:
			close(a.warm)
			<-a.release
		case 1:
			return nil, a.abandon(req)
		default:
			req.Body.Close()
			return nil, fmt.Errorf("abandonedIngest: connection to %s refused", a.host)
		}
	}
	if req.URL.Path == "/handoff" {
		a.mu.Lock()
		body, second, served := a.body, a.second, a.served
		a.body = nil
		a.mu.Unlock()
		if body != nil {
			if _, err := body.Write(second); err != nil {
				return nil, err
			}
			body.Close()
			status := <-served
			a.mu.Lock()
			a.status = status
			a.mu.Unlock()
		}
	}
	return a.base.RoundTrip(req)
}

// handlerStatus is what the abandoned handler answered (0 while it runs).
func (a *abandonedIngest) handlerStatus() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.status
}

// abandon delivers the first frame of req to a handler running in process,
// waits until the node has admitted it, and fails the request.
func (a *abandonedIngest) abandon(req *http.Request) error {
	sequence, err := io.ReadAll(req.Body)
	req.Body.Close()
	if err != nil {
		return err
	}
	first, _, err := eventFrame.ParseHeader(sequence)
	if err != nil {
		return err
	}
	if first == len(sequence) {
		return fmt.Errorf("abandonedIngest: the request carries one frame, the test needs two")
	}
	stream := req.Header.Get(HeaderStream)
	base, err := strconv.ParseInt(req.Header.Get(HeaderFrameBase), 10, 64)
	if err != nil {
		return err
	}
	pr, pw := io.Pipe()
	fwd := httptest.NewRequest(http.MethodPost, "/ingest", pr)
	fwd.Header = req.Header.Clone()
	status := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		a.victim.Handler().ServeHTTP(rec, fwd)
		status <- rec.Code
	}()
	if _, err := pw.Write(sequence[:first]); err != nil {
		return err
	}
	for deadline := time.Now().Add(10 * time.Second); a.victim.StreamCursor(stream) != base+1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return fmt.Errorf("abandonedIngest: the victim never admitted frame %d", base)
		}
	}
	a.mu.Lock()
	a.second, a.body, a.served = sequence[first:], pw, status
	a.mu.Unlock()
	close(a.abandoned)
	return fmt.Errorf("abandonedIngest: connection to %s lost", a.host)
}

func (a *abandonedIngest) CloseIdleConnections() { closeIdle(a.base) }

// TestEvictFencesAbandonedRequest: a request the router gave up on still has a
// handler, and that handler may admit a frame after the eviction has exported
// the victim's users and before it reads the victim's stream cursor. Were the
// frame admitted, its events would land on a snapshot already taken while the
// cursor called them applied, and the re-route would skip them: lost. The
// fence makes the node refuse it, so the frame is re-routed and applied once.
func TestEvictFencesAbandonedRequest(t *testing.T) {
	p := surgeryModel(t)
	ring, err := NewRing([]string{"node0", "node1"})
	if err != nil {
		t.Fatal(err)
	}
	profiles := ownedProfiles(ring, map[string]int{"node0": 6, "node1": 6})
	users := profileIDs(profiles)
	// The victim's first twelve events go first — three frames of four — and
	// the rest of the stream follows in its own order.
	var victims, stream []service.Event
	for _, ev := range synth.RandomEventStream(rand.New(rand.NewSource(41)), p, users, 12) {
		if ring.Owner(ev.UserID) == "node1" && len(victims) < 12 {
			victims = append(victims, ev)
		} else {
			stream = append(stream, ev)
		}
	}
	direct := directMonitor(t, profiles, append(append([]service.Event(nil), victims...), stream...))

	race := &abandonedIngest{
		base: H2CTransport(), warm: make(chan struct{}), release: make(chan struct{}), abandoned: make(chan struct{}),
	}
	c, err := StartLocal(p, 2, NodeConfig{}, RouterConfig{
		// Only the batch threshold cuts frames, and a window of four lets
		// frames 1 and 2 queue behind the held frame 0 and leave as one request.
		BatchEvents:   4,
		MaxInFlight:   4,
		FlushInterval: time.Hour,
		MaxRetries:    1000,
		BackoffBase:   time.Millisecond,
		BackoffMax:    20 * time.Millisecond,
		HTTPClient:    &http.Client{Transport: race},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop(context.Background())
	race.victim, race.host = c.Nodes[1], strings.TrimPrefix(c.Servers[1].URL(), "http://")
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := c.Router.Register(ctx, profiles); err != nil {
		t.Fatal(err)
	}
	if err := c.Router.SendBatch(ctx, victims[:4]); err != nil {
		t.Fatal(err)
	}
	<-race.warm
	if err := c.Router.SendBatch(ctx, victims[4:]); err != nil {
		t.Fatal(err)
	}
	close(race.release)
	select {
	case <-race.abandoned:
	case <-time.After(10 * time.Second):
		t.Fatal("the two-frame request never reached the victim")
	}

	stream1 := c.Router.streamFor("node1")
	if err := c.EvictNode(ctx, "node1"); err != nil {
		t.Fatal(err)
	}
	if status := race.handlerStatus(); status != http.StatusServiceUnavailable {
		t.Errorf("the abandoned handler answered %d to the frame fed during the eviction, want 503 from a fenced node", status)
	}
	if got := c.retired[0].StreamCursor(stream1); got != 2 {
		t.Errorf("the victim's stream cursor reads %d, want 2: frames 0 and 1 admitted, frame 2 refused", got)
	}
	if err := c.Router.SendBatch(ctx, stream); err != nil {
		t.Fatal(err)
	}
	// Per-user applied counts equal the direct monitor's: frame 2's events
	// were applied exactly once.
	requireClusterMatchesDirect(t, c, direct, users)
	if stats := c.Router.Stats(); stats.FailoverSkippedFrames != 1 || stats.ReroutedEvents != 4 || stats.Dropped != 0 {
		t.Fatalf("router stats = %+v, want frame 1 skipped as applied and frame 2's 4 events re-routed", stats)
	}
}

// TestFencedNodeRefusesIngest: a fenced node answers /ingest 503, admits
// nothing — not even the acknowledgement of a duplicate — and its stream
// cursor stands still; lifting the fence (the eviction was abandoned) makes it
// an ordinary node again.
func TestFencedNodeRefusesIngest(t *testing.T) {
	node := newTestNode(t, NodeConfig{})
	profile := casestudy.PatientProfile()
	if err := node.Monitor().RegisterUser(profile); err != nil {
		t.Fatal(err)
	}
	events := casestudy.MedicalServiceEvents(profile.ID)
	post := func(base int, frames ...[]byte) (int, int) {
		req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(bytes.Join(frames, nil)))
		req.Header.Set(HeaderStream, "s1")
		req.Header.Set(HeaderFrameBase, strconv.Itoa(base))
		w := httptest.NewRecorder()
		node.Handler().ServeHTTP(w, req)
		var ir ingestResponse
		if err := json.Unmarshal(w.Body.Bytes(), &ir); err != nil {
			t.Fatalf("ingest response %q is not JSON: %v", w.Body.String(), err)
		}
		return w.Code, ir.Accepted
	}
	if code, accepted := post(0, mustFrame(t, events[:2])); code != http.StatusAccepted || accepted != 1 {
		t.Fatalf("before the fence: %d, %d accepted", code, accepted)
	}
	node.fence(true)
	if code, accepted := post(1, mustFrame(t, events[2:4])); code != http.StatusServiceUnavailable || accepted != 0 {
		t.Fatalf("fenced node answered %d with %d accepted, want 503 and none", code, accepted)
	}
	if code, accepted := post(0, mustFrame(t, events[:2]), mustFrame(t, events[2:4])); code != http.StatusServiceUnavailable || accepted != 0 {
		t.Fatalf("fenced node answered a redelivery %d with %d accepted, want 503 and none", code, accepted)
	}
	if err := node.Quiesce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s := node.Stats(); s.Frames != 1 || s.Events != 2 || s.DedupedFrames != 0 || s.Ingest.Events != 2 {
		t.Fatalf("stats = %+v, want only the frame admitted before the fence", s)
	}
	if got := node.StreamCursor("s1"); got != 1 {
		t.Fatalf("stream cursor = %d after the fence, want it still at 1", got)
	}
	node.fence(false)
	if code, accepted := post(1, mustFrame(t, events[2:4])); code != http.StatusAccepted || accepted != 1 {
		t.Fatalf("after the fence was lifted: %d, %d accepted", code, accepted)
	}
}

// TestFailedEvictionLeavesNodeDeliverable: an eviction cancels the victim's
// sender before it knows the change will complete. When the change then fails
// — here the destination never acknowledges a handoff — the victim is still
// in the ring and still owed its events: what the cancelled sender parked,
// and everything routed to the node afterwards, must reach it. A node left
// behind a cancelled sender swallows them silently: Flush returns nil and
// nothing is counted dropped.
func TestFailedEvictionLeavesNodeDeliverable(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the handoff retry backoff")
	}
	p := surgeryModel(t)
	ring, err := NewRing([]string{"node0", "node1"})
	if err != nil {
		t.Fatal(err)
	}
	profiles := ownedProfiles(ring, map[string]int{"node0": 8, "node1": 8})
	users := profileIDs(profiles)
	stream := synth.RandomEventStream(rand.New(rand.NewSource(43)), p, users, 12)
	direct := directMonitor(t, profiles, stream)

	base := H2CTransport()
	transport := newSwitchTransport(base)
	// Only the seal cuts frames: the first half of the stream is still in the
	// senders' buffers when the eviction starts, so the victim's share of it
	// is cut onto the cancelled sender and parked.
	c, err := StartLocal(p, 2, NodeConfig{}, RouterConfig{
		BatchEvents:   4096,
		FlushInterval: time.Hour,
		HTTPClient:    &http.Client{Transport: transport},
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
	half := len(stream) / 2
	if err := c.Router.SendBatch(ctx, stream[:half]); err != nil {
		t.Fatal(err)
	}

	host := strings.TrimPrefix(c.Servers[0].URL(), "http://")
	transport.use(fault.New(base, fault.Config{
		Paths:      []string{"/handoff"},
		Partitions: []fault.Partition{{Host: host, From: 0, To: math.MaxUint64}},
	}))
	if err := c.EvictNode(ctx, "node1"); err == nil {
		t.Fatal("the eviction succeeded although the destination never acknowledged its handoff")
	}
	if c.Router.Epoch() != 1 || len(c.Nodes) != 2 {
		t.Fatalf("failed eviction moved the ring: epoch %d, %d live nodes", c.Router.Epoch(), len(c.Nodes))
	}
	transport.use(base)

	if err := c.Router.SendBatch(ctx, stream[half:]); err != nil {
		t.Fatal(err)
	}
	requireClusterMatchesDirect(t, c, direct, users)
	c.Router.memberMu.RLock()
	sender := c.Router.senders["node1"]
	c.Router.memberMu.RUnlock()
	sender.mu.Lock()
	parked := len(sender.parked)
	sender.mu.Unlock()
	if stats := c.Router.Stats(); stats.DroppedEvents != 0 || parked != 0 {
		t.Fatalf("after the failed eviction: %d events dropped, %d frames left parked; want none of either", stats.DroppedEvents, parked)
	}

	if err := c.EvictNode(ctx, "node1"); err != nil {
		t.Fatalf("second eviction, after the fault passed: %v", err)
	}
	requireClusterMatchesDirect(t, c, direct, users)
}
