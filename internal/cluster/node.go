package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"privascope/internal/core"
	"privascope/internal/lts"
	"privascope/internal/runtime"
	"privascope/internal/service"
)

// NodeConfig configures one ingest node.
type NodeConfig struct {
	// Name is the node's ring name (required; must match the Router's view).
	Name string
	// QueueEvents bounds the events buffered between the HTTP handlers and
	// the drain worker; past it the node answers 429. 0 selects
	// DefaultQueueEvents.
	QueueEvents int
	// RetryAfter is the advisory delay sent with 429 responses. 0 selects
	// DefaultRetryAfter.
	RetryAfter time.Duration
}

const (
	// DefaultQueueEvents is the per-node admission bound: enough for a few
	// dozen full frames in flight, small enough that a stalled drain worker
	// pushes back within milliseconds of traffic.
	DefaultQueueEvents = 65536
	// DefaultRetryAfter is the advisory 429 Retry-After.
	DefaultRetryAfter = time.Second
	// nodeQueueBatches is the drain channel's capacity in batches; admission
	// is governed by the event-count bound, this only has to be deep enough
	// to never be the effective limit for reasonably sized frames.
	nodeQueueBatches = 1024
)

// NodeStats is an atomic snapshot of one node's counters.
type NodeStats struct {
	// Frames and Events count what the ingest endpoint accepted; Rejected
	// counts events turned away with 429; DecodeErrors counts malformed
	// frames (400).
	Frames       int64
	Events       int64
	Rejected     int64
	DecodeErrors int64
	// DedupedFrames counts retried frames the stream-offset filter skipped
	// because an earlier delivery already applied them (a response lost to
	// the network, not the client's fault).
	DedupedFrames int64
	// QueueDepth is the number of accepted events not yet applied to the
	// monitor; QueueLimit is the admission bound.
	QueueDepth int64
	QueueLimit int64
	// HandoffInUsers counts user snapshots a membership change imported
	// through /handoff (registrations, which arrive there too, are not
	// counted); HandoffOutUsers counts snapshots exported off this node by a
	// membership change, split by reason ("rebalance" vs "failover" lives on
	// the importing side's metrics labels).
	HandoffInUsers  int64
	HandoffOutUsers int64
	// FailoverInUsers counts the subset of HandoffInUsers imported because
	// their previous owner was evicted as dead.
	FailoverInUsers int64
	// Ready reports the readiness half of the health split: false while the
	// node is draining or receiving a handoff.
	Ready bool
	// Ingest aggregates the monitor's per-batch IngestStats.
	Ingest runtime.IngestStats
}

// Node is one ingest server of the cluster: it decodes event frames from
// /ingest, queues them through a bounded buffer, and applies them to its own
// runtime.Monitor on a single drain goroutine — one drainer per node keeps
// cross-frame per-user order exactly as the frames arrived; parallelism
// across users comes from running several nodes.
type Node struct {
	name       string
	monitor    *runtime.Monitor
	initial    lts.StateID // the model's initial state, where a registration starts
	mux        *http.ServeMux
	queue      chan []service.Event
	retryAfter time.Duration
	queueLimit int64

	pending      atomic.Int64 // accepted events not yet applied
	frames       atomic.Int64
	events       atomic.Int64
	rejected     atomic.Int64
	decodeErrors atomic.Int64
	deduped      atomic.Int64
	handoffIn    atomic.Int64
	handoffOut   atomic.Int64
	failoverIn   atomic.Int64

	// draining, quiescing and receiving drive the readiness half of the
	// health split: /readyz answers 503 once the node is leaving (draining,
	// set by BeginDrain for good), while it flushes its queue (quiescing, a
	// count of Quiesce calls in progress — kept apart from draining so a
	// quiesce ending cannot clear the permanent mark) or while it imports
	// snapshots (receiving), so probers and load balancers stop routing to it
	// before its state moves.
	draining  atomic.Bool
	quiescing atomic.Int32
	receiving atomic.Int64

	// streams maps a router sender's stream ID to the next expected frame
	// index, so a frame redelivered after a lost response is skipped instead
	// of applied twice (exactly-once ingest on top of at-least-once retries).
	// fenced marks a node being evicted: it admits no further frame, so the
	// cursors stand still. streamsMu guards both, and a frame's whole
	// admission decision (handleIngest) is one critical section under it.
	streamsMu sync.Mutex
	streams   map[string]int64
	fenced    bool

	statsMu sync.Mutex
	ingest  runtime.IngestStats

	stop     chan struct{}
	drained  chan struct{}
	stopOnce sync.Once
}

// NewNode builds a node with its own monitor over the model.
func NewNode(p *core.PrivacyLTS, cfg NodeConfig) (*Node, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("cluster: node needs a name")
	}
	monitor, err := runtime.NewMonitor(p, runtime.Config{})
	if err != nil {
		return nil, fmt.Errorf("cluster: node %q: %w", cfg.Name, err)
	}
	if cfg.QueueEvents <= 0 {
		cfg.QueueEvents = DefaultQueueEvents
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	n := &Node{
		name:       cfg.Name,
		monitor:    monitor,
		initial:    p.InitialState(),
		queue:      make(chan []service.Event, nodeQueueBatches),
		retryAfter: cfg.RetryAfter,
		queueLimit: int64(cfg.QueueEvents),
		streams:    make(map[string]int64),
		stop:       make(chan struct{}),
		drained:    make(chan struct{}),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", n.handleIngest)
	mux.HandleFunc("POST /handoff", n.handleHandoff)
	mux.HandleFunc("GET /alerts", n.handleAlerts)
	mux.HandleFunc("GET /healthz", n.handleHealthz)
	mux.HandleFunc("GET /readyz", n.handleReadyz)
	mux.HandleFunc("GET /metrics", n.handleMetrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	n.mux = mux
	go n.drain()
	return n, nil
}

// Name returns the node's ring name.
func (n *Node) Name() string { return n.name }

// Monitor exposes the node's monitor (management plane: registration in
// tests and benchmarks, alert queries).
func (n *Node) Monitor() *runtime.Monitor { return n.monitor }

// Handler returns the node's HTTP handler.
func (n *Node) Handler() http.Handler { return n.mux }

// Stats snapshots the node's counters.
func (n *Node) Stats() NodeStats {
	n.statsMu.Lock()
	ingest := n.ingest
	n.statsMu.Unlock()
	return NodeStats{
		Frames:          n.frames.Load(),
		Events:          n.events.Load(),
		Rejected:        n.rejected.Load(),
		DecodeErrors:    n.decodeErrors.Load(),
		DedupedFrames:   n.deduped.Load(),
		QueueDepth:      n.pending.Load(),
		QueueLimit:      n.queueLimit,
		HandoffInUsers:  n.handoffIn.Load(),
		HandoffOutUsers: n.handoffOut.Load(),
		FailoverInUsers: n.failoverIn.Load(),
		Ready:           n.ready(),
		Ingest:          ingest,
	}
}

// ready reports the readiness half of the health split.
func (n *Node) ready() bool {
	return !n.draining.Load() && n.quiescing.Load() == 0 && n.receiving.Load() == 0
}

// drain is the node's single ingestion worker.
func (n *Node) drain() {
	defer close(n.drained)
	apply := func(batch []service.Event) {
		stats := n.monitor.IngestBatch(batch)
		n.statsMu.Lock()
		n.ingest.Merge(stats)
		n.statsMu.Unlock()
		n.pending.Add(-int64(len(batch)))
	}
	for {
		select {
		case batch := <-n.queue:
			apply(batch)
		case <-n.stop:
			// Drain what was admitted before stopping: accepted events must
			// not be dropped.
			for {
				select {
				case batch := <-n.queue:
					apply(batch)
				default:
					return
				}
			}
		}
	}
}

// Quiesce blocks until every accepted event has been applied to the monitor
// (or ctx is done). The router's Flush plus every node's Quiesce is the
// cluster-wide happens-before edge tests rely on. While quiescing the node
// reports not-ready on /readyz: a drain is exactly the moment probers and
// load balancers should stop routing new work here.
func (n *Node) Quiesce(ctx context.Context) error {
	n.quiescing.Add(1)
	defer n.quiescing.Add(-1)
	return waitZero(ctx, &n.pending)
}

// waitZero polls until n reads zero or ctx is done. It is the package's one
// wait on a counter other goroutines drain: events a node has admitted,
// handoff requests a node is serving.
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

// BeginDrain marks the node as draining for good: /readyz answers 503 from
// here on. A graceful leave calls it before the state handoff so external
// routing backs off while ownership moves; Close implies it.
func (n *Node) BeginDrain() { n.draining.Store(true) }

// Close stops the drain worker after it has applied every accepted batch.
func (n *Node) Close() {
	n.BeginDrain()
	n.stopOnce.Do(func() { close(n.stop) })
	<-n.drained
}

// StreamCursor returns the next frame index the node expects on the stream —
// everything below it has been applied. Membership changes read it off a dead
// node (management plane, in-process) to decide which owed frames still
// need re-routing and which would be duplicates.
func (n *Node) StreamCursor(stream string) int64 {
	n.streamsMu.Lock()
	defer n.streamsMu.Unlock()
	return n.streams[stream]
}

// fence marks (or, when the eviction is abandoned, unmarks) the node as being
// evicted. The router aborts its requests to an evicted node, but abandoning a
// request does not stop its handler, which may be holding a decoded frame. Once
// fence(true) returns no handler admits another frame: what Quiesce then
// applies and the users' snapshots show is exactly what the stream cursors
// say, so the eviction's re-route neither loses nor repeats a frame.
func (n *Node) fence(on bool) {
	n.streamsMu.Lock()
	n.fenced = on
	n.streamsMu.Unlock()
}

// admit reserves room for a decoded batch, returning false when the node is
// saturated. Reservation is optimistic-add/rollback on the pending counter,
// so concurrent ingest streams cannot jointly overshoot the bound.
func (n *Node) admit(batch []service.Event) bool {
	count := int64(len(batch))
	if n.pending.Add(count) > n.queueLimit {
		n.pending.Add(-count)
		return false
	}
	select {
	case n.queue <- batch:
		return true
	default:
		n.pending.Add(-count)
		return false
	}
}

// ingestResponse is the /ingest reply body.
type ingestResponse struct {
	// Accepted counts the request's frames admitted to the queue; on 429 the
	// client resends from frame Accepted.
	Accepted int    `json:"accepted"`
	Error    string `json:"error,omitempty"`
}

// HeaderStream and HeaderFrameBase are the ingest deduplication headers: a
// router sender tags each request with its stream ID and the index of the
// request's first frame within that stream. Frames below the node's stream
// cursor were already applied by a delivery whose response got lost; the node
// skips them (counting DedupedFrames) but reports them accepted, so the
// client's resume arithmetic is unchanged. Requests without the headers
// bypass deduplication.
const (
	HeaderStream    = "Privascope-Stream"
	HeaderFrameBase = "Privascope-Frame-Base"
)

// handleIngest streams frames out of the request body into the ingest queue.
// The whole body is one frame sequence; the response reports how many frames
// were admitted, so a 429 mid-stream tells the client exactly where to
// resume.
func (n *Node) handleIngest(w http.ResponseWriter, r *http.Request) {
	stream := r.Header.Get(HeaderStream)
	base := int64(0)
	if stream != "" {
		v, err := strconv.ParseInt(r.Header.Get(HeaderFrameBase), 10, 64)
		if err != nil || v < 0 {
			http.Error(w, "cluster: bad "+HeaderFrameBase+" header", http.StatusBadRequest)
			return
		}
		base = v
	}
	fr := NewFrameReader(r.Body)
	accepted := 0
	for {
		batch, err := fr.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			n.decodeErrors.Add(1)
			writeJSON(w, http.StatusBadRequest, ingestResponse{Accepted: accepted, Error: err.Error()})
			return
		}
		// One critical section decides the frame: a fenced node refuses; a
		// frame below its stream's cursor was applied by a delivery whose
		// response got lost; otherwise the batch is admitted, if there is
		// room, and the cursor moves past it (frames a client dropped leave
		// gaps; the cursor only moves forward). One section, not one per
		// question, so fence and StreamCursor see no frame half-way through.
		idx := base + int64(accepted)
		n.streamsMu.Lock()
		fenced := n.fenced
		duplicate := !fenced && stream != "" && idx < n.streams[stream]
		admitted := !fenced && !duplicate && n.admit(batch)
		if admitted && stream != "" {
			n.streams[stream] = idx + 1
		}
		n.streamsMu.Unlock()
		switch {
		case fenced:
			writeJSON(w, http.StatusServiceUnavailable, ingestResponse{Accepted: accepted, Error: "node is being evicted"})
			return
		case duplicate:
			n.deduped.Add(1)
		case !admitted:
			n.rejected.Add(int64(len(batch)))
			w.Header().Set("Retry-After", strconv.Itoa(int((n.retryAfter+time.Second-1)/time.Second)))
			writeJSON(w, http.StatusTooManyRequests, ingestResponse{Accepted: accepted, Error: "ingest queue full"})
			return
		default:
			n.frames.Add(1)
			n.events.Add(int64(len(batch)))
		}
		accepted++
	}
	writeJSON(w, http.StatusAccepted, ingestResponse{Accepted: accepted})
}

// alertJSON is the wire form of one alert.
type alertJSON struct {
	Kind    string        `json:"kind"`
	UserID  string        `json:"user_id"`
	Message string        `json:"message"`
	Risk    string        `json:"risk,omitempty"`
	Event   service.Event `json:"event"`
}

// handleAlerts returns the node's alert log in observation order.
func (n *Node) handleAlerts(w http.ResponseWriter, r *http.Request) {
	alerts := n.monitor.Alerts()
	out := make([]alertJSON, len(alerts))
	for i, a := range alerts {
		out[i] = alertJSON{
			Kind:    a.Kind.String(),
			UserID:  a.UserID,
			Message: a.Message,
			Event:   a.Event,
		}
		if a.Kind == runtime.AlertRisk {
			out[i].Risk = a.Risk.String()
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// HeaderHandoffReason labels a /handoff request with why its users arrive:
// "rebalance" for a planned membership change, "failover" when the previous
// owner was evicted as dead — the importing node counts the two separately —
// and "register" for users the fleet has not tracked before.
const HeaderHandoffReason = "Privascope-Handoff-Reason"

// handoffResponse is the /handoff reply body.
type handoffResponse struct {
	Imported int    `json:"imported"`
	Error    string `json:"error,omitempty"`
}

// handleHandoff imports the user snapshots of one PSHO frame — one chunk of a
// membership change or of a registration — into the node's monitor. The frame
// is fully decoded and every snapshot validated before any user is touched,
// so a rejected frame installs nothing; imports are idempotent, so a
// duplicated delivery (the sender retried after a lost response) converges to
// the same state. A registration's snapshots must carry no state and zero
// cursors — the router has no model; the node starts them at its model's
// initial state — while a moved user's must name a state of the model. While
// a handoff is being received the node reports not-ready.
func (n *Node) handleHandoff(w http.ResponseWriter, r *http.Request) {
	n.receiving.Add(1)
	defer n.receiving.Add(-1)
	body, err := io.ReadAll(io.LimitReader(r.Body, MaxHandoffBytes+1))
	if err != nil {
		http.Error(w, "cluster: reading handoff frame: "+err.Error(), http.StatusBadRequest)
		return
	}
	snaps, err := DecodeHandoff(body)
	if err != nil {
		n.decodeErrors.Add(1)
		writeJSON(w, http.StatusBadRequest, handoffResponse{Error: err.Error()})
		return
	}
	reason := r.Header.Get(HeaderHandoffReason)
	if reason == ReasonRegister {
		for i := range snaps {
			if s := &snaps[i]; s.State != "" || s.Applied != 0 || s.Alerts != 0 {
				writeJSON(w, http.StatusUnprocessableEntity, handoffResponse{Error: fmt.Sprintf(
					"cluster: registration of user %q carries state (%q, applied %d, alerts %d)", s.Profile.ID, s.State, s.Applied, s.Alerts)})
				return
			}
			snaps[i].State = n.initial
		}
	}
	if err := n.monitor.ImportUsers(r.Context(), snaps); err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, handoffResponse{Error: err.Error()})
		return
	}
	if reason != ReasonRegister {
		n.handoffIn.Add(int64(len(snaps)))
	}
	if reason == ReasonFailover {
		n.failoverIn.Add(int64(len(snaps)))
	}
	writeJSON(w, http.StatusOK, handoffResponse{Imported: len(snaps)})
}

// handleHealthz is the liveness half of the health split: it answers 200
// whenever the process serves HTTP at all. Eviction decisions key off this —
// a draining node is still alive.
func (n *Node) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"node":    n.name,
		"pending": n.pending.Load(),
		"ready":   n.ready(),
	})
}

// handleReadyz is the readiness half: 503 while the node is draining for a
// shutdown/handoff or importing a handoff, 200 otherwise. Probers and
// external load balancers route on this; eviction must not.
func (n *Node) handleReadyz(w http.ResponseWriter, r *http.Request) {
	status := http.StatusOK
	if !n.ready() {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{
		"node":      n.name,
		"ready":     n.ready(),
		"draining":  n.draining.Load() || n.quiescing.Load() > 0,
		"receiving": n.receiving.Load() > 0,
		"pending":   n.pending.Load(),
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
