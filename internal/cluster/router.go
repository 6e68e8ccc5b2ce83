package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"privascope/internal/risk"
	"privascope/internal/runtime"
	"privascope/internal/service"
)

// RouterConfig configures the ingest client.
type RouterConfig struct {
	// Nodes maps ring node names to base URLs (required, at least one).
	Nodes map[string]string
	// BatchEvents is the per-node buffer size at which a frame is cut and
	// sent (0 selects DefaultBatchEvents).
	BatchEvents int
	// FlushInterval bounds how long a buffered event may wait before the
	// partial frame is sent anyway (0 selects DefaultFlushInterval).
	FlushInterval time.Duration
	// MaxInFlight bounds the cut frames queued for delivery per node; a full
	// window blocks Send, which is the client half of the backpressure
	// protocol. Delivery itself is one FIFO sender per node regardless of
	// the window, so per-user event order is preserved end to end; a larger
	// window only deepens the queue feeding that sender. Default 1.
	MaxInFlight int
	// MaxRetries bounds delivery attempts per frame sequence, 429 rounds
	// included (0 selects DefaultMaxRetries).
	MaxRetries int
	// BackoffBase and BackoffMax shape the jittered exponential backoff
	// between delivery attempts after a transport error or 5xx: attempt k
	// waits a uniformly jittered duration in [d/2, d] for d =
	// min(BackoffBase<<k, BackoffMax), so a flapping node is probed at a
	// geometrically decreasing rate instead of hammered in a tight loop.
	// Zero selects DefaultBackoffBase / DefaultBackoffMax. 429 responses are
	// excluded: they carry the server's own Retry-After advice.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BackoffJitterSeed seeds the deterministic jitter source (0 selects a
	// fixed default seed; tests pin schedules by choosing a seed).
	BackoffJitterSeed int64
	// HTTPClient overrides the default unencrypted-HTTP/2 client.
	HTTPClient *http.Client
}

const (
	// DefaultBatchEvents is the frame-cut threshold: large enough to
	// amortize the per-request cost over hundreds of events, small enough to
	// stay far below MaxFrameBytes for any realistic event size.
	DefaultBatchEvents = 512
	// DefaultFlushInterval bounds buffered-event latency.
	DefaultFlushInterval = 50 * time.Millisecond
	// DefaultMaxRetries bounds attempts per frame sequence.
	DefaultMaxRetries = 16
	// DefaultBackoffBase is the first retry's backoff; it doubles per retry
	// up to DefaultBackoffMax, which the 9th retry reaches.
	DefaultBackoffBase = 5 * time.Millisecond
	// DefaultBackoffMax caps the retry backoff.
	DefaultBackoffMax = 2 * time.Second
)

// RouterStats is a snapshot of the router's counters.
type RouterStats struct {
	// EventsSent and FramesSent count what reached a node's queue (accepted,
	// after any retries); Rejected429 counts backpressure rounds; Retries
	// counts delivery re-attempts (one per retried request).
	EventsSent  int64
	FramesSent  int64
	Rejected429 int64
	Retries     int64
	// Dropped counts frame sequences abandoned after MaxRetries — exactly
	// once per abandoned sequence, however many frames it still carried;
	// DroppedFrames and DroppedEvents count the frames and events those
	// sequences lost.
	Dropped       int64
	DroppedFrames int64
	DroppedEvents int64
	// Epoch is the ring epoch: it starts at 1 and increments on every
	// membership change, so readers can tell which ownership generation the
	// other counters belong to.
	Epoch int64
	// ReroutedEvents counts events re-routed to their new owners when a node
	// was evicted; FailoverSkippedFrames counts parked frames NOT re-routed
	// because the dead node's stream cursor proved them already applied.
	ReroutedEvents        int64
	FailoverSkippedFrames int64
	// Changes counts completed membership changes and Frozen is the cumulative
	// time the membership lock was held exclusively — how long Send was parked
	// in total, failed changes included. LastChange describes the most recent
	// completed change (zero before the first).
	Changes    int64
	Frozen     time.Duration
	LastChange MembershipChange
}

// MembershipChange is what one completed membership change moved and where
// its time went.
type MembershipChange struct {
	// Kind is ChangeJoin, ChangeLeave or ChangeEvict; Node is the node that
	// joined or departed; Epoch is the ring epoch the change installed.
	Kind  string
	Node  string
	Epoch int64
	// UsersMoved and Chunks count the user snapshots handed to new owners and
	// the PSHO frames that carried them.
	UsersMoved int
	Chunks     int
	// Seal is the time to flush (or, for the evicted node, park) the in-flight
	// frames, Handoff the time to move the users, and Teardown the time to
	// close the router's connections to a departed node and stop its server
	// (zero for a join). Send is parked for Seal + Handoff and the ring swap —
	// plus, for an eviction, the re-routing of the parked frames — but not for
	// the server stop. Total is the whole change, first lock to last close.
	Seal     time.Duration
	Handoff  time.Duration
	Teardown time.Duration
	Total    time.Duration
}

// cutFrame is one encoded frame queued on a sender, tagged with its index in
// the sender's stream so the receiving node can deduplicate redeliveries.
type cutFrame struct {
	idx    int64
	data   []byte
	events int
}

// nodeSender is the per-node half of the router: a buffer the Send path
// appends to, and a single goroutine posting cut frames in FIFO order, so the
// per-user event order the ring guarantees (one user, one node) survives the
// wire.
type nodeSender struct {
	name string
	url  string

	// ctx is the sender's lifetime. Evicting the node cancels it: the POST in
	// flight is aborted, a backoff sleep ends, and every frame still owed —
	// in a request, queued, or waiting for room in the window — is parked for
	// the eviction to re-route instead of posted or dropped.
	ctx    context.Context
	cancel context.CancelFunc

	mu      sync.Mutex
	buf     []service.Event
	enc     frameEncoder
	nextIdx int64      // next frame index in this sender's stream
	parked  []cutFrame // frames an evicted node still owed, in no particular order

	frames  chan cutFrame // cut frames, FIFO; capacity = MaxInFlight
	pending atomic.Int64  // frames cut, not yet accepted, dropped or parked
}

// Router is the cluster's ingest client: it partitions events over the ring,
// buffers per node, cuts binary frames at the batch threshold or flush
// deadline, and honors 429 + Retry-After backpressure. Membership is live: a
// join, leave or eviction (change, in membership.go) rebuilds the ring at a
// new epoch after handing per-user monitor state to the new owners, and an
// evicted node's undelivered frames are re-routed to its users' new owners —
// never silently dropped.
type Router struct {
	ring   atomic.Pointer[Ring]
	epoch  atomic.Int64
	client *http.Client
	cfg    RouterConfig

	// memberMu is the membership lock: Send/Flush/Register and the flush
	// tick hold it shared; membership changes hold it exclusively, so a
	// change observes a frozen Send plane while state moves.
	memberMu sync.RWMutex
	senders  map[string]*nodeSender

	// streamID prefixes every sender's dedup stream key, so retried requests
	// from this router never collide with another router's streams.
	streamID string

	events  atomic.Int64
	frames  atomic.Int64
	rej429  atomic.Int64
	retries atomic.Int64

	dropped       atomic.Int64
	droppedFrames atomic.Int64
	droppedEvents atomic.Int64
	rerouted      atomic.Int64
	failoverSkip  atomic.Int64
	frozenNs      atomic.Int64

	// changeMu guards the membership-change record.
	changeMu   sync.Mutex
	changes    int64
	lastChange MembershipChange

	// jitter is the deterministic backoff-jitter source; sleepFn is the
	// backoff sleep (swapped for a fake clock in tests).
	jitterMu sync.Mutex
	jitter   *rand.Rand
	sleepFn  func(ctx context.Context, d time.Duration)

	errMu    sync.Mutex
	firstErr error

	stopTick  chan struct{}
	tickDone  chan struct{}
	closed    chan struct{}
	sendersWG sync.WaitGroup
	closeOnce sync.Once
}

// H2CTransport returns a transport speaking unencrypted HTTP/2 (the fleet's
// wire protocol inside the perimeter). The fault-injection harness wraps it.
func H2CTransport() *http.Transport {
	var p http.Protocols
	p.SetUnencryptedHTTP2(true)
	return &http.Transport{Protocols: &p}
}

// h2cClient is the default client: one multiplexed h2c connection per node.
func h2cClient() *http.Client {
	return &http.Client{Transport: H2CTransport()}
}

// routerSeq distinguishes routers created within one process.
var routerSeq atomic.Int64

// NewRouter builds a router over the configured nodes.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: router needs at least one node")
	}
	names := make([]string, 0, len(cfg.Nodes))
	for name, url := range cfg.Nodes {
		if url == "" {
			return nil, fmt.Errorf("cluster: node %q has no URL", name)
		}
		names = append(names, name)
	}
	ring, err := NewRing(names)
	if err != nil {
		return nil, err
	}
	if cfg.BatchEvents <= 0 {
		cfg.BatchEvents = DefaultBatchEvents
	}
	if cfg.BatchEvents > MaxFrameEvents {
		cfg.BatchEvents = MaxFrameEvents
	}
	if cfg.FlushInterval <= 0 {
		cfg.FlushInterval = DefaultFlushInterval
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 1
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = DefaultMaxRetries
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = DefaultBackoffBase
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = DefaultBackoffMax
	}
	seed := cfg.BackoffJitterSeed
	if seed == 0 {
		seed = 1
	}
	client := cfg.HTTPClient
	if client == nil {
		client = h2cClient()
	}
	r := &Router{
		client:   client,
		senders:  make(map[string]*nodeSender, len(names)),
		cfg:      cfg,
		streamID: fmt.Sprintf("%d-%d-%d", os.Getpid(), time.Now().UnixNano(), routerSeq.Add(1)),
		jitter:   rand.New(rand.NewSource(seed)),
		stopTick: make(chan struct{}),
		tickDone: make(chan struct{}),
		closed:   make(chan struct{}),
	}
	r.sleepFn = r.timerSleep
	r.ring.Store(ring)
	r.epoch.Store(1)
	for name, url := range cfg.Nodes {
		r.startSender(name, url, nil)
	}
	go r.tickLoop()
	return r, nil
}

// startSender builds and launches the sender for one node; owed is the frame
// sequence it delivers before anything queued on it (resumeSender's, nil
// otherwise). The caller either owns the router exclusively (NewRouter) or
// holds memberMu exclusively.
func (r *Router) startSender(name, url string, owed []cutFrame) *nodeSender {
	s := &nodeSender{name: name, url: url, frames: make(chan cutFrame, r.cfg.MaxInFlight)}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.pending.Add(int64(len(owed)))
	r.senders[name] = s
	r.sendersWG.Add(1)
	go r.sendLoop(s, owed)
	return s
}

// Ring returns the router's current partitioning ring.
func (r *Router) Ring() *Ring { return r.ring.Load() }

// Epoch returns the current ring epoch (1 at construction, +1 per membership
// change).
func (r *Router) Epoch() int64 { return r.epoch.Load() }

// streamFor is the dedup stream key of one sender.
func (r *Router) streamFor(node string) string { return r.streamID + "/" + node }

// Stats snapshots the router's counters.
func (r *Router) Stats() RouterStats {
	r.changeMu.Lock()
	changes, last := r.changes, r.lastChange
	r.changeMu.Unlock()
	return RouterStats{
		Changes:               changes,
		Frozen:                time.Duration(r.frozenNs.Load()),
		LastChange:            last,
		EventsSent:            r.events.Load(),
		FramesSent:            r.frames.Load(),
		Rejected429:           r.rej429.Load(),
		Retries:               r.retries.Load(),
		Dropped:               r.dropped.Load(),
		DroppedFrames:         r.droppedFrames.Load(),
		DroppedEvents:         r.droppedEvents.Load(),
		Epoch:                 r.epoch.Load(),
		ReroutedEvents:        r.rerouted.Load(),
		FailoverSkippedFrames: r.failoverSkip.Load(),
	}
}

// Err returns the first delivery error, if any frame sequence was dropped.
func (r *Router) Err() error {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return r.firstErr
}

func (r *Router) setErr(err error) {
	r.errMu.Lock()
	if r.firstErr == nil {
		r.firstErr = err
	}
	r.errMu.Unlock()
}

// Send routes one event to its owner's buffer, cutting a frame when the
// buffer reaches the batch threshold. It blocks when the owner's in-flight
// window is full — that block is the backpressure propagating to the caller —
// and while a membership change is rebuilding the ring, so an event observed
// before a change lands on the old owner (whose state then moves) and an
// event observed after lands on the new one: re-routed, never dropped.
func (r *Router) Send(ctx context.Context, ev service.Event) error {
	r.memberMu.RLock()
	defer r.memberMu.RUnlock()
	return r.route(ctx, ev)
}

// route is Send under an already-held membership lock (either mode).
func (r *Router) route(ctx context.Context, ev service.Event) error {
	s := r.senders[r.ring.Load().Owner(ev.UserID)]
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf = append(s.buf, ev)
	if len(s.buf) >= r.cfg.BatchEvents {
		return r.cutLocked(ctx, s)
	}
	return nil
}

// SendBatch routes a batch of events.
func (r *Router) SendBatch(ctx context.Context, events []service.Event) error {
	for _, ev := range events {
		if err := r.Send(ctx, ev); err != nil {
			return err
		}
	}
	return nil
}

// cutLocked encodes s.buf as one frame and queues it on the sender, blocking
// while the in-flight window is full. Called with s.mu held; holding it
// through the (possibly blocking) queue insert keeps frame order identical
// to buffer order. A sender cancelled while the cut waits for room parks the
// frame here: the send loop needs s.mu to park what it holds, so it cannot be
// what empties the window.
func (r *Router) cutLocked(ctx context.Context, s *nodeSender) error {
	if len(s.buf) == 0 {
		return nil
	}
	data, err := s.enc.appendFrame(nil, s.buf)
	if err != nil {
		return err
	}
	f := cutFrame{idx: s.nextIdx, data: data, events: len(s.buf)}
	s.nextIdx++
	s.buf = s.buf[:0]
	s.pending.Add(1)
	select {
	case s.frames <- f:
		return nil
	case <-s.ctx.Done():
		s.parked = append(s.parked, f)
		s.pending.Add(-1)
		return nil
	case <-ctx.Done():
		s.pending.Add(-1)
		return ctx.Err()
	}
}

// tickLoop cuts partial frames at the flush interval so buffered events
// never wait longer than FlushInterval.
func (r *Router) tickLoop() {
	defer close(r.tickDone)
	tick := time.NewTicker(r.cfg.FlushInterval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			r.memberMu.RLock()
			for _, s := range r.senders {
				// The tick never waits for room in a sender's window. Waiting,
				// it would hold s.mu and the membership lock: the next Send to
				// that node would queue behind it — with a node that is not
				// draining its window, until somebody else evicts it — and so
				// would every join and leave. Frames are queued only under
				// s.mu, so a window with room here cannot fill before the cut;
				// a full one is cut by a later tick, by Send reaching the
				// batch threshold, or by the seal.
				var err error
				s.mu.Lock()
				if len(s.frames) < cap(s.frames) {
					err = r.cutLocked(context.Background(), s)
				}
				s.mu.Unlock()
				if err != nil {
					r.setErr(err)
				}
			}
			r.memberMu.RUnlock()
		case <-r.stopTick:
			return
		}
	}
}

// sendLoop posts cut frames in order. It drains greedily: every frame
// already queued behind the first is concatenated into the same request body
// (a body is a frame sequence), amortizing the request overhead under load.
// Once the sender is cancelled, what it could not deliver is parked for the
// eviction to re-route instead of dropped.
func (r *Router) sendLoop(s *nodeSender, owed []cutFrame) {
	defer r.sendersWG.Done()
	if len(owed) > 0 {
		r.deliver(s, owed)
	}
	for first := range s.frames {
		frames := []cutFrame{first}
	drainMore:
		for {
			select {
			case f, ok := <-s.frames:
				if !ok {
					break drainMore
				}
				frames = append(frames, f)
			default:
				break drainMore
			}
		}
		r.deliver(s, frames)
	}
}

// deliver posts one frame sequence and resolves every frame of it: accepted,
// parked (the sender was cancelled) or dropped.
func (r *Router) deliver(s *nodeSender, frames []cutFrame) {
	accepted, acceptedEvents, rest, err := r.post(s, frames)
	r.frames.Add(int64(accepted))
	r.events.Add(int64(acceptedEvents))
	switch {
	case err == nil:
	case s.ctx.Err() != nil:
		s.mu.Lock()
		s.parked = append(s.parked, rest...)
		s.mu.Unlock()
	default:
		r.setErr(fmt.Errorf("cluster: node %q: %w", s.name, err))
		r.dropped.Add(1)
		r.droppedFrames.Add(int64(len(rest)))
		for _, f := range rest {
			r.droppedEvents.Add(int64(f.events))
		}
	}
	s.pending.Add(-int64(len(frames)))
}

// post delivers a frame sequence, honoring 429 + Retry-After: a saturated
// node reports how many frames it accepted, the router sleeps the advised
// delay and resends from there, and the accepted prefix survives later
// failures — acceptance is monotonic across retries. Non-2xx/429 responses
// and transport errors retry the remainder after a jittered exponential
// backoff, up to MaxRetries attempts in total. Requests and sleeps run under
// the sender's context, so evicting the node ends the delivery at once. It
// returns the accepted frame and event counts, the unaccepted remainder, and
// the final error (nil when everything was accepted, the context's when the
// sender was cancelled).
func (r *Router) post(s *nodeSender, frames []cutFrame) (acceptedFrames, acceptedEvents int, rest []cutFrame, err error) {
	var lastErr error
	for attempt := 0; attempt < r.cfg.MaxRetries; attempt++ {
		if err := s.ctx.Err(); err != nil {
			return acceptedFrames, acceptedEvents, frames, err
		}
		if attempt > 0 {
			r.retries.Add(1)
		}
		body := make([]byte, 0, r.sequenceSize(frames))
		for _, f := range frames {
			body = append(body, f.data...)
		}
		req, reqErr := http.NewRequestWithContext(s.ctx, http.MethodPost, s.url+"/ingest", bytes.NewReader(body))
		if reqErr != nil {
			return acceptedFrames, acceptedEvents, frames, reqErr
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		req.Header.Set(HeaderStream, r.streamFor(s.name))
		req.Header.Set(HeaderFrameBase, strconv.FormatInt(frames[0].idx, 10))
		resp, postErr := r.client.Do(req)
		if postErr != nil {
			lastErr = postErr
			r.sleepFn(s.ctx, r.backoff(attempt))
			continue
		}
		respBody, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
			for _, f := range frames {
				acceptedEvents += f.events
			}
			return acceptedFrames + len(frames), acceptedEvents, nil, nil
		case http.StatusTooManyRequests:
			r.rej429.Add(1)
			var ir ingestResponse
			if json.Unmarshal(respBody, &ir) == nil && ir.Accepted > 0 && ir.Accepted <= len(frames) {
				acceptedFrames += ir.Accepted
				for _, f := range frames[:ir.Accepted] {
					acceptedEvents += f.events
				}
				frames = frames[ir.Accepted:]
			}
			if len(frames) == 0 {
				return acceptedFrames, acceptedEvents, nil, nil
			}
			lastErr = fmt.Errorf("saturated (429) after %d attempts", attempt+1)
			r.sleepFn(s.ctx, retryAfterOf(resp))
		default:
			lastErr = fmt.Errorf("ingest returned %s: %s", resp.Status, bytes.TrimSpace(respBody))
			r.sleepFn(s.ctx, r.backoff(attempt))
		}
	}
	return acceptedFrames, acceptedEvents, frames, lastErr
}

// retryAfterOf parses a 429's Retry-After seconds, with a floor that keeps a
// zero or missing header from turning the retry loop into a hot spin.
func retryAfterOf(resp *http.Response) time.Duration {
	if sec, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && sec > 0 {
		return min(time.Duration(sec)*time.Second, 5*time.Second)
	}
	return 20 * time.Millisecond
}

// sequenceSize sums the encoded bytes of a frame sequence.
func (r *Router) sequenceSize(frames []cutFrame) int {
	n := 0
	for _, f := range frames {
		n += len(f.data)
	}
	return n
}

// backoff computes the jittered exponential delay after failed attempt k
// (0-based): uniformly drawn from [d/2, d] for d = min(base<<k, max). The
// jitter source is seeded (BackoffJitterSeed), so a test can pin the exact
// schedule.
func (r *Router) backoff(attempt int) time.Duration {
	d := r.cfg.BackoffBase
	for i := 0; i < attempt && d < r.cfg.BackoffMax; i++ {
		d *= 2
	}
	if d > r.cfg.BackoffMax {
		d = r.cfg.BackoffMax
	}
	r.jitterMu.Lock()
	j := time.Duration(r.jitter.Int63n(int64(d/2) + 1))
	r.jitterMu.Unlock()
	return d/2 + j
}

// timerSleep is the production sleep: it ends early when ctx does (the
// target node was evicted) or the router closes, so a retry loop never
// outlives either. Closing flushes first, so that only short-circuits
// attempts that already failed once.
func (r *Router) timerSleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	case <-r.closed:
	}
}

// Register installs each profile on its owner node as what it is: the
// handoff of a fresh snapshot — no state, zero cursors; the node supplies its
// model's initial state — down the chunked, pipelined, idempotently retried
// path a membership change moves users by (streamHandoff), under the reason
// label ReasonRegister. Registering a user the fleet already tracks resets
// them.
func (r *Router) Register(ctx context.Context, profiles []risk.UserProfile) error {
	r.memberMu.RLock()
	defer r.memberMu.RUnlock()
	byNode := make(map[string][]runtime.UserSnapshot)
	ring := r.ring.Load()
	for _, p := range profiles {
		owner := ring.Owner(p.ID)
		byNode[owner] = append(byNode[owner], runtime.UserSnapshot{Profile: p})
	}
	for name, snaps := range byNode {
		st := &handoffStream{url: r.senders[name].url, snaps: snaps}
		if err := r.streamHandoff(ctx, st, ReasonRegister); err != nil {
			return fmt.Errorf("cluster: registering on %q: %w", name, err)
		}
	}
	return nil
}

// Flush cuts every buffered partial frame and waits until all cut frames
// have been accepted or dropped.
func (r *Router) Flush(ctx context.Context) error {
	r.memberMu.RLock()
	defer r.memberMu.RUnlock()
	if err := r.flushSealed(ctx); err != nil {
		return err
	}
	return r.Err()
}

// flushSealed cuts every sender's buffer and waits until every cut frame is
// resolved: accepted, dropped or — the sender of a node being evicted —
// parked. The caller holds memberMu in either mode.
func (r *Router) flushSealed(ctx context.Context) error {
	for _, s := range r.senders {
		s.mu.Lock()
		err := r.cutLocked(ctx, s)
		s.mu.Unlock()
		if err != nil {
			return err
		}
	}
	for _, s := range r.senders {
		if err := waitZero(ctx, &s.pending); err != nil {
			return err
		}
	}
	return nil
}

// waitZero polls until n reads zero or ctx is done. It is the package's one
// wait on a counter other goroutines drain: frames a sender owes, events a
// node has admitted, handoff requests a node is serving.
func waitZero(ctx context.Context, n *atomic.Int64) error {
	if n.Load() == 0 {
		return nil
	}
	tick := time.NewTicker(500 * time.Microsecond)
	defer tick.Stop()
	for n.Load() != 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
	return nil
}

// Close flushes buffered events, stops the background goroutines and returns
// the first delivery error, if any.
func (r *Router) Close() error {
	var err error
	r.closeOnce.Do(func() {
		close(r.stopTick)
		<-r.tickDone
		err = r.Flush(context.Background())
		close(r.closed)
		r.memberMu.Lock()
		for _, s := range r.senders {
			close(s.frames)
		}
		r.sendersWG.Wait()
		for _, s := range r.senders {
			s.cancel()
		}
		r.memberMu.Unlock()
		// As in a membership change's tear-down step (membership.go): the
		// node servers are stopped next and must not wait on this client.
		r.client.CloseIdleConnections()
		if err == nil {
			err = r.Err()
		}
	})
	return err
}
