package cluster

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"slices"
	"strconv"
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
	// MaxInFlight bounds the cut frames queued for delivery per node behind
	// the sequence on the wire: one more frame may be cut, and a Send whose
	// event would cut the next blocks, which is the client half of the
	// backpressure protocol. Delivery itself is one FIFO sequence per node at
	// a time regardless of the window, so per-user event order is preserved
	// end to end; a larger window only deepens the queue feeding it. Default 1.
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
	// was evicted; FailoverSkippedFrames counts owed frames NOT re-routed
	// because the dead node's stream cursor proved them already applied.
	ReroutedEvents        int64
	FailoverSkippedFrames int64
	// Changes counts completed membership changes and Frozen is the cumulative
	// time Send was parked by them, failed changes included. LastChange
	// describes the most recent completed change (zero before the first).
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
	// Seal is the time to deliver (or, for the evicted node, take back) the
	// cut frames, Handoff the time to move the users, and Teardown the time to
	// close the router's connections to a departed node and stop its server
	// (zero for a join). Send is parked for Seal + Handoff and the ring swap —
	// plus, for an eviction, the re-routing of the owed frames — but not for
	// the server stop. Total is the whole change, seal to last close.
	Seal     time.Duration
	Handoff  time.Duration
	Teardown time.Duration
	Total    time.Duration
}

// cutFrame is one encoded frame, tagged with its index in the sender's stream
// so the receiving node can deduplicate redeliveries.
type cutFrame struct {
	idx    int64
	data   []byte
	events int
}

// Router is the cluster's ingest client: it partitions events over the ring,
// buffers per node, cuts binary frames at the batch threshold or flush
// deadline, and honors 429 + Retry-After backpressure. Membership is live: a
// join, leave or eviction (change, in membership.go) rebuilds the ring at a
// new epoch after handing per-user monitor state to the new owners, and an
// evicted node's undelivered frames are re-routed to its users' new owners —
// never silently dropped.
//
// The router is one state machine. One goroutine, the owner loop (run), holds
// the ring, the epoch, every node's buffer, window and owed frames and the
// change in progress, and changes them only through step. Every call is an
// event to it, and so are the flush tick and each delivery attempt's outcome;
// what step asks for — an answer, a POST, a cancellation — run carries out.
type Router struct {
	cfg    RouterConfig
	client *http.Client
	// streamID prefixes every sender's dedup stream key, so retried requests
	// from this router never collide with another router's streams.
	streamID string
	ring     atomic.Pointer[Ring] // the state's, published for Ring
	epoch    atomic.Int64         // the state's, published for Epoch
	inbox    chan any             // events for the owner loop
	done     chan struct{}        // closed when the owner loop has ended

	// Only the owner loop touches the rest: the state, each node's delivery
	// attempt's cancel function, the backoff-jitter source. sleepFn is the
	// pause after a failed attempt (swapped for a fake clock in tests).
	st      routerState
	cancels map[string]context.CancelFunc
	jitter  *rand.Rand
	sleepFn func(ctx context.Context, d time.Duration)
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

// errRouterClosed answers a call the router will never take.
var errRouterClosed = errors.New("cluster: router is closed")

// NewRouter builds a router over the configured nodes and starts its owner
// loop.
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
	cfg.BatchEvents = min(positiveOr(cfg.BatchEvents, DefaultBatchEvents), MaxFrameEvents)
	cfg.FlushInterval = positiveOr(cfg.FlushInterval, DefaultFlushInterval)
	cfg.MaxInFlight = positiveOr(cfg.MaxInFlight, 1)
	cfg.MaxRetries = positiveOr(cfg.MaxRetries, DefaultMaxRetries)
	cfg.BackoffBase = positiveOr(cfg.BackoffBase, DefaultBackoffBase)
	cfg.BackoffMax = positiveOr(cfg.BackoffMax, DefaultBackoffMax)
	client := cfg.HTTPClient
	if client == nil {
		client = h2cClient()
	}
	r := &Router{
		cfg:      cfg,
		client:   client,
		streamID: fmt.Sprintf("%d-%d-%d", os.Getpid(), time.Now().UnixNano(), routerSeq.Add(1)),
		inbox:    make(chan any),
		done:     make(chan struct{}),
		st:       newRouterState(cfg, ring),
		cancels:  make(map[string]context.CancelFunc),
		jitter:   rand.New(rand.NewSource(cmp.Or(cfg.BackoffJitterSeed, 1))),
		sleepFn:  timerSleep,
	}
	r.ring.Store(ring)
	r.epoch.Store(1)
	go r.run()
	return r, nil
}

// positiveOr is v, or d when v is not positive.
func positiveOr[T int | time.Duration](v, d T) T {
	if v > 0 {
		return v
	}
	return d
}

// Ring returns the router's current partitioning ring.
func (r *Router) Ring() *Ring { return r.ring.Load() }

// Epoch returns the current ring epoch (1 at construction, +1 per membership
// change).
func (r *Router) Epoch() int64 { return r.epoch.Load() }

// streamFor is the dedup stream key of one sender.
func (r *Router) streamFor(node string) string { return r.streamID + "/" + node }

// Stats snapshots the router's counters.
func (r *Router) Stats() (s RouterStats) {
	r.inspect(func(st *routerState) { s = st.stats })
	return s
}

// Err returns the first delivery error, if any frame sequence was dropped.
func (r *Router) Err() (err error) {
	r.inspect(func(st *routerState) { err = st.err })
	return err
}

// Send routes one event to its owner's buffer, cutting a frame when the
// buffer reaches the batch threshold. It blocks while that frame would find
// the owner's in-flight window full — that block is the backpressure
// propagating to the caller — and while a membership change is rebuilding the
// ring, so an event observed before a change lands on the old owner (whose
// state then moves) and an event observed after lands on the new one:
// re-routed, never dropped. An error means the event was not taken; nil means
// it will be delivered or counted in DroppedEvents.
func (r *Router) Send(ctx context.Context, ev service.Event) error {
	return r.SendBatch(ctx, []service.Event{ev})
}

// SendBatch routes a batch of events, in order, as one call. It returns nil
// when every event was taken. When ctx ends while an event waits for window
// room or for a membership change, it returns ctx's error: the events before
// that one were taken, and it and the rest were not. Taken events are
// delivered or counted in DroppedEvents.
func (r *Router) SendBatch(ctx context.Context, events []service.Event) error {
	if len(events) == 0 {
		return nil
	}
	return r.ask(ctx, &sendCall{events: events})
}

// Register installs each profile on its owner node as what it is: the
// handoff of a fresh snapshot — no state, zero cursors; the node supplies its
// model's initial state — down the chunked, pipelined, idempotently retried
// path a membership change moves users by (streamHandoff), under the reason
// label ReasonRegister. Registering a user the fleet already tracks resets
// them. No membership change seals while a registration is handing off.
func (r *Router) Register(ctx context.Context, profiles []risk.UserProfile) error {
	c := &registerCall{}
	if err := r.ask(ctx, c); err != nil {
		return err
	}
	defer func() {
		c.over = true
		_ = r.ask(context.Background(), c)
	}()
	byNode := make([][]runtime.UserSnapshot, len(c.urls))
	for _, p := range profiles {
		i := c.ring.ownerIndex(p.ID)
		byNode[i] = append(byNode[i], runtime.UserSnapshot{Profile: p})
	}
	for i, snaps := range byNode {
		if len(snaps) == 0 {
			continue
		}
		if err := r.streamHandoff(ctx, &handoffStream{url: c.urls[i], snaps: snaps}, ReasonRegister); err != nil {
			return fmt.Errorf("cluster: registering on %q: %w", c.ring.nodes[i], err)
		}
	}
	return nil
}

// Flush cuts every buffered partial frame and waits until every frame cut so
// far has been accepted or dropped. It returns the first delivery error.
func (r *Router) Flush(ctx context.Context) error {
	return r.ask(ctx, &flushCall{})
}

// Close flushes buffered events, ends the owner loop, and returns the first
// delivery error, if any. Calls after Close fail.
func (r *Router) Close() error {
	c := &flushCall{kind: flushClose}
	if r.ask(context.Background(), c) == errRouterClosed {
		return nil
	}
	<-r.done
	// As in a membership change's tear-down (membership.go): the node servers
	// are stopped next and must not wait on this client.
	r.client.CloseIdleConnections()
	return c.err
}

// ask hands the owner loop a call and waits for its answer. When ctx ends
// first it asks for the call back, and the owner loop answers ctx's error
// unless it has answered already: the answer is always the owner's word.
func (r *Router) ask(ctx context.Context, c call) error {
	rp := c.replyTo()
	rp.answered, rp.done = false, make(chan struct{})
	select {
	case r.inbox <- c:
	case <-r.done:
		return errRouterClosed
	}
	select {
	case <-rp.done:
	case <-ctx.Done():
		select {
		case r.inbox <- withdraw{rp, ctx.Err()}:
			<-rp.done
		case <-rp.done:
		}
	}
	return rp.err
}

// inspect runs f on the state in the owner loop, or directly once the loop
// has ended.
func (r *Router) inspect(f func(*routerState)) {
	if r.ask(context.Background(), &inspectCall{f: f}) == errRouterClosed {
		f(&r.st)
	}
}

// run is the owner loop: it feeds every event to step and carries out the
// effects step returns, until Close's flush is answered.
func (r *Router) run() {
	defer close(r.done)
	tick := time.NewTicker(r.cfg.FlushInterval)
	defer tick.Stop()
	for !r.st.exited {
		var ev any = flushTick{}
		select {
		case ev = <-r.inbox:
		case <-tick.C:
		}
		if c, ok := ev.(*inspectCall); ok {
			c.f(&r.st)
			close(c.done)
			continue
		}
		for _, e := range r.st.step(ev) {
			switch e.kind {
			case effAnswer:
				close(e.reply.done)
			case effPost:
				ctx, cancel := context.WithCancel(context.Background())
				r.cancels[e.node] = cancel
				go r.attempt(ctx, cancel, e, r.backoff(e.attempt))
			case effAbort:
				r.cancels[e.node]()
			}
		}
		if r.st.ring != r.ring.Load() {
			r.epoch.Store(r.st.stats.Epoch)
			r.ring.Store(r.st.ring)
		}
	}
}

// attempt is the delivery effect: one POST of a frame sequence and, when it
// fails, the pause before the owner loop may try again — the node's
// Retry-After after a 429, the jittered backoff otherwise — reported back as
// a posted event. A saturated node's 429 says how many frames it accepted, so
// the next attempt resends from there: acceptance is monotonic across
// retries. Evicting the node cancels ctx, which ends request and pause.
func (r *Router) attempt(ctx context.Context, cancel context.CancelFunc, e effect, pause time.Duration) {
	defer cancel()
	p := posted{node: e.node}
	defer func() {
		if p.err != nil {
			r.sleepFn(ctx, pause)
		}
		r.inbox <- p
	}()
	size := 0
	for _, f := range e.frames {
		size += len(f.data)
	}
	body := make([]byte, 0, size)
	for _, f := range e.frames {
		body = append(body, f.data...)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.url+"/ingest", bytes.NewReader(body))
	if err != nil {
		p.err = err
		return
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(HeaderStream, r.streamFor(e.node))
	req.Header.Set(HeaderFrameBase, strconv.FormatInt(e.frames[0].idx, 10))
	resp, err := r.client.Do(req)
	if err != nil {
		p.err = err
		return
	}
	respBody, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusAccepted:
		p.accepted = len(e.frames)
	case http.StatusTooManyRequests:
		p.rejected = true
		var ir ingestResponse
		if json.Unmarshal(respBody, &ir) == nil && ir.Accepted > 0 && ir.Accepted <= len(e.frames) {
			p.accepted = ir.Accepted
		}
		if p.accepted < len(e.frames) {
			p.err = fmt.Errorf("saturated (429) after %d attempts", e.attempt+1)
			pause = retryAfterOf(resp)
		}
	default:
		p.err = fmt.Errorf("ingest returned %s: %s", resp.Status, bytes.TrimSpace(respBody))
	}
}

// retryAfterOf parses a 429's Retry-After seconds, with a floor that keeps a
// zero or missing header from turning the retry loop into a hot spin.
func retryAfterOf(resp *http.Response) time.Duration {
	if sec, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && sec > 0 {
		return min(time.Duration(sec)*time.Second, 5*time.Second)
	}
	return 20 * time.Millisecond
}

// backoff computes the jittered exponential delay after failed attempt k
// (0-based): uniformly drawn from [d/2, d] for d = min(base<<k, max). The
// owner loop draws one for each attempt it starts, from a source seeded by
// BackoffJitterSeed, so a test can pin the exact schedule.
func (r *Router) backoff(attempt int) time.Duration {
	d := r.cfg.BackoffBase
	for i := 0; i < attempt && d < r.cfg.BackoffMax; i++ {
		d *= 2
	}
	d = min(d, r.cfg.BackoffMax)
	return d/2 + time.Duration(r.jitter.Int63n(int64(d/2)+1))
}

// timerSleep is the production pause: it ends early when ctx does (the node
// was evicted), so a retry never outlives its node.
func timerSleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// The events step takes: the calls, which a caller waits on, and the flush
// tick, a delivery attempt's outcome and a caller taking its call back.
type (
	// reply is a call's answer: the owner loop sets err and closes done once
	// per ask.
	reply struct {
		err      error
		answered bool
		done     chan struct{}
	}
	// sendCall is Send or SendBatch; events[:taken] are taken.
	sendCall struct {
		reply
		events []service.Event
		taken  int
	}
	// flushCall is Flush, a change's seal or Close's flush.
	flushCall struct {
		reply
		kind  flushKind
		marks []flushMark
	}
	// registerCall starts a registration, answered with the ring and its
	// nodes' URLs; sent again with over set, it ends it.
	registerCall struct {
		reply
		over bool
		ring *Ring
		urls []string
	}
	// inspectCall runs f on the state, in the owner loop but outside step.
	inspectCall struct {
		reply
		f func(*routerState)
	}
	// withdraw takes an unanswered call back, answering err.
	withdraw struct {
		r   *reply
		err error
	}
	// flushTick is the FlushInterval timer.
	flushTick struct{}
	// posted is a delivery attempt's outcome: the node took the first
	// accepted frames of the sequence, and err says why not the rest.
	posted struct {
		node     string
		accepted int
		rejected bool // the node answered 429
		err      error
	}
)

// call is an event whose sender waits for the owner loop's answer.
type call interface{ replyTo() *reply }

func (r *reply) replyTo() *reply { return r }

// flushKind tells the three flushes apart. A seal freezes the router until its
// change ends and Close's for good; both wait for registrations to end, and
// once Close's is answered the owner loop ends.
type flushKind uint8

const (
	flushUser flushKind = iota // answered with the first delivery error
	flushSeal
	flushClose
)

// flushMark is one sender's share of a flush: every frame below upto must be
// resolved — accepted, dropped or, on a cancelled sender, owed.
type flushMark struct {
	s    *sender
	upto int64
}

// effect is what step asks the owner loop to do: answer a call, start a
// delivery attempt of frames (attempt 0 for a sequence's first), or cancel
// the node's attempt in flight.
type effect struct {
	kind      effectKind
	reply     *reply
	node, url string
	frames    []cutFrame
	attempt   int
}

type effectKind uint8

const (
	effAnswer effectKind = iota
	effPost
	effAbort
)

// sender is one node's share of the state: the events not yet cut, and every
// cut frame not yet accepted or dropped, in stream order. queue[:inFlight] is
// the sequence a delivery attempt carries; the rest waits in the window.
// Frames only leave from the front, so what an evicted node owes is already
// in stream order.
type sender struct {
	name, url string
	buf       []service.Event
	enc       frameEncoder
	next      int64 // index of the next frame cut in this sender's stream
	flushTo   int64 // a flush or tick wants the buffer cut until next reaches it
	queue     []cutFrame
	inFlight  int
	attempt   int  // the attempt the sequence on the wire is on, from 0
	cancelled bool // being evicted: its frames are owed, not posted
}

// routerState is everything the router knows. Only step changes it.
type routerState struct {
	batch, window, maxRetries int

	ring        *Ring
	senders     []*sender    // one per ring node, in the ring's (sorted) order
	held        []call       // calls not yet taken, in arrival order
	flushes     []*flushCall // flushes waiting for their frames
	change      *changeCall  // the membership change in progress
	frozen      bool         // a seal or Close froze the router: nothing held is taken
	registering int          // registrations handing off right now
	exited      bool         // Close's flush was answered
	stats       RouterStats
	err         error    // the first delivery error
	out         []effect // step's effects, reused
}

// newRouterState is the state of a fresh router over ring; cfg is normalized
// and names every node's URL.
func newRouterState(cfg RouterConfig, ring *Ring) routerState {
	st := routerState{batch: cfg.BatchEvents, window: cfg.MaxInFlight, maxRetries: cfg.MaxRetries, ring: ring}
	for _, name := range ring.nodes {
		st.senders = append(st.senders, &sender{name: name, url: cfg.Nodes[name]})
	}
	st.stats.Epoch = 1
	return st
}

// step applies one event to the state and returns the effects it asks for, in
// order. It takes no context, does no I/O, reads no clock and starts no
// goroutine: run turns its effects into answers, requests and cancellations.
func (st *routerState) step(ev any) []effect {
	st.out = st.out[:0]
	switch ev := ev.(type) {
	case *registerCall:
		if ev.over {
			st.registering--
			st.answer(&ev.reply, nil)
			break
		}
		st.held = append(st.held, ev)
	case *flushCall:
		if ev.kind == flushUser {
			st.held = append(st.held, ev)
			break
		}
		st.frozen = true
		st.flush(ev)
	case *sendCall:
		st.held = append(st.held, ev)
	case *changeCall:
		st.stepChange(ev)
	case withdraw:
		st.answer(ev.r, ev.err)
	case flushTick:
		for _, s := range st.senders {
			if len(s.buf) > 0 {
				s.flushTo = s.next + 1
			}
		}
	case posted:
		st.delivered(ev)
	}
	st.settle()
	return st.out
}

// settle does what the event made possible: take the held calls, cut the
// buffers a flush or tick wants cut and has room for, start the idle senders'
// deliveries, and answer the flushes whose frames are all resolved.
func (st *routerState) settle() {
	if !st.frozen {
		st.takeHeld()
	}
	for _, s := range st.senders {
		if len(s.buf) > 0 && s.flushTo > s.next && st.room(s) {
			st.cut(s)
		}
	}
	for _, s := range st.senders {
		if !s.cancelled && s.inFlight == 0 && len(s.queue) > 0 {
			s.inFlight, s.attempt = len(s.queue), 0
			st.post(s)
		}
	}
	kept := st.flushes[:0]
	for _, c := range st.flushes {
		switch {
		case c.answered:
		case !st.flushed(c):
			kept = append(kept, c)
		case c.kind == flushSeal:
			st.answer(&c.reply, nil)
		default:
			st.answer(&c.reply, st.err)
			st.exited = st.exited || c.kind == flushClose
		}
	}
	clear(st.flushes[len(kept):])
	st.flushes = kept
	if st.exited { // refuse whatever is still waiting
		for _, c := range st.held {
			st.answer(c.replyTo(), errRouterClosed)
		}
		for _, c := range st.flushes {
			st.answer(&c.reply, errRouterClosed)
		}
		st.held, st.flushes = nil, nil
	}
}

// takeHeld takes the held calls in arrival order. A send whose next event
// must wait for window room stops the sends behind it, not the other calls.
func (st *routerState) takeHeld() {
	kept := st.held[:0]
	blocked := false
	for _, c := range st.held {
		switch c := c.(type) {
		case *sendCall:
			for !c.answered && !blocked && c.taken < len(c.events) {
				if blocked = !st.take(&c.events[c.taken], false); !blocked {
					c.taken++
				}
			}
			if c.taken == len(c.events) {
				st.answer(&c.reply, nil)
			}
			if !c.answered {
				kept = append(kept, c)
			}
		case *flushCall:
			if !c.answered {
				st.flush(c)
			}
		case *registerCall:
			if !c.answered {
				c.ring, c.urls = st.ring, make([]string, len(st.senders))
				for i, s := range st.senders {
					c.urls[i] = s.url
				}
				st.registering++
				st.answer(&c.reply, nil)
			}
		}
	}
	clear(st.held[len(kept):])
	st.held = kept
}

// take routes one event to its owner's buffer, cutting the frame the event
// completes. Unless force is set (a re-route: the events were taken once
// already), it refuses, leaving the event untaken, when that frame would find
// the window full.
func (st *routerState) take(ev *service.Event, force bool) bool {
	s := st.senders[st.ring.ownerIndex(ev.UserID)]
	full := len(s.buf)+1 >= st.batch
	if full && !force && !st.room(s) {
		return false
	}
	s.buf = append(s.buf, *ev)
	if full {
		st.cut(s)
	}
	return true
}

// room reports whether s may cut another frame: one more than the window
// holds may wait behind the sequence on the wire, as the frame of a Send
// blocked on a full window always did. A cancelled sender's window is
// unbounded: what it is given is owed.
func (st *routerState) room(s *sender) bool {
	return s.cancelled || len(s.queue)-s.inFlight <= st.window
}

// cut encodes s's buffer as the next frame of its stream. A buffer that does
// not encode is counted dropped; its index stays a gap in the stream.
func (st *routerState) cut(s *sender) {
	if data, err := s.enc.appendFrame(nil, s.buf); err == nil {
		s.queue = append(s.queue, cutFrame{idx: s.next, data: data, events: len(s.buf)})
	} else {
		st.drop(s, []cutFrame{{events: len(s.buf)}}, err)
	}
	s.next++
	clear(s.buf)
	s.buf = s.buf[:0]
}

// flush asks for every buffer to be cut and marks, per sender, the frames c
// waits for: every one cut so far, and the one the buffer becomes.
func (st *routerState) flush(c *flushCall) {
	for _, s := range st.senders {
		upto := s.next
		if len(s.buf) > 0 {
			upto++
			s.flushTo = upto
		}
		c.marks = append(c.marks, flushMark{s, upto})
	}
	st.flushes = append(st.flushes, c)
}

// flushed reports whether every frame c waits for is resolved — and, for a
// seal or Close, that no registration is handing off.
func (st *routerState) flushed(c *flushCall) bool {
	for _, m := range c.marks {
		// A cancelled sender's frames are resolved, as owed, unless on the wire.
		s := m.s
		unresolved := len(s.queue) > 0 && (!s.cancelled || s.inFlight > 0)
		if s.next < m.upto || unresolved && s.queue[0].idx < m.upto {
			return false
		}
	}
	return c.kind == flushUser || st.registering == 0
}

// delivered applies a delivery attempt's outcome: the accepted frames leave
// the queue, and the rest of the sequence is owed (the sender was cancelled),
// retried or, out of attempts, dropped.
func (st *routerState) delivered(p posted) {
	s := st.sender(p.node)
	for _, f := range s.queue[:p.accepted] {
		st.stats.FramesSent++
		st.stats.EventsSent += int64(f.events)
	}
	st.trim(s, p.accepted)
	if p.rejected {
		st.stats.Rejected429++
	}
	switch {
	case s.inFlight == 0:
	case s.cancelled:
		s.inFlight = 0
	case s.attempt+1 < st.maxRetries:
		s.attempt++
		st.stats.Retries++
		st.post(s)
	default:
		st.drop(s, s.queue[:s.inFlight], p.err)
		st.trim(s, s.inFlight)
	}
}

// drop counts a sequence abandoned, with its frames and events, and records
// why.
func (st *routerState) drop(s *sender, frames []cutFrame, err error) {
	st.stats.Dropped++
	st.stats.DroppedFrames += int64(len(frames))
	for _, f := range frames {
		st.stats.DroppedEvents += int64(f.events)
	}
	if st.err == nil {
		st.err = fmt.Errorf("cluster: node %q: %w", s.name, err)
	}
}

// trim removes the first n frames of s's sequence in flight.
func (st *routerState) trim(s *sender, n int) {
	clear(s.queue[:n])
	s.queue, s.inFlight = s.queue[n:], s.inFlight-n
}

// post asks for a delivery attempt of s's sequence in flight.
func (st *routerState) post(s *sender) {
	st.out = append(st.out, effect{kind: effPost, node: s.name, url: s.url,
		frames: slices.Clone(s.queue[:s.inFlight]), attempt: s.attempt})
}

// answer answers a call, unless it has been answered already.
func (st *routerState) answer(rp *reply, err error) {
	if !rp.answered {
		rp.err, rp.answered = err, true
		st.out = append(st.out, effect{kind: effAnswer, reply: rp})
	}
}

// sender finds a ring node's sender (nil when it is not one).
func (st *routerState) sender(name string) *sender {
	for _, s := range st.senders {
		if s.name == name {
			return s
		}
	}
	return nil
}
