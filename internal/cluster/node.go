package cluster

import (
	"bytes"
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
	"privascope/internal/risk"
	"privascope/internal/runtime"
	"privascope/internal/service"
)

// NodeConfig configures one ingest node.
type NodeConfig struct {
	// Name is the node's ring name (required; must match the Router's view).
	Name string
	// assessments is the fleet's cache (StartLocal); nil: the node's own.
	assessments *risk.AssessmentCache
}

// NodeStats is an atomic snapshot of one node's counters.
type NodeStats struct {
	// Frames counts the frames the ingest endpoint applied (Ingest.Events
	// their events); DecodeErrors counts malformed frames (400).
	Frames       int64
	DecodeErrors int64
	// DedupedFrames counts retried frames the stream-offset filter skipped
	// because an earlier delivery already applied them (a response lost to
	// the network, not the client's fault).
	DedupedFrames int64
	// QueueDepth is the number of events in decoded frames that wait for, or
	// are running, their apply to the monitor.
	QueueDepth int64
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
	// AlertRecords is the number of alerts the monitor's log holds;
	// AlertShapes the number of distinct event shapes those records share.
	AlertRecords int64
	AlertShapes  int64
}

// Node is one ingest server of the cluster: it decodes event frames from
// /ingest and applies each to its own runtime.Monitor before acknowledging
// it, one frame at a time under streamsMu — so cross-frame per-user order is
// exactly the order the frames arrived in, and a 202 means applied.
// Parallelism across users comes from running several nodes; backpressure is
// the Router's window of unacknowledged frames.
type Node struct {
	name    string
	monitor *runtime.Monitor
	initial lts.StateID // the model's initial state, where a registration starts
	mux     *http.ServeMux

	pending      atomic.Int64 // events of decoded frames not yet applied
	frames       atomic.Int64
	decodeErrors atomic.Int64
	deduped      atomic.Int64
	handoffIn    atomic.Int64
	handoffOut   atomic.Int64
	failoverIn   atomic.Int64

	// draining and receiving drive the readiness half of the health split:
	// /readyz answers 503 once the node is leaving (draining, set for good
	// when a graceful leave begins or the node is closed) or while it
	// imports snapshots (receiving), so probers and load balancers stop
	// routing to it before its state moves.
	draining  atomic.Bool
	receiving atomic.Int64

	// streams maps a router sender's stream ID to the next expected frame
	// index, so a frame redelivered after a lost response is skipped instead
	// of applied twice (exactly-once ingest on top of at-least-once retries).
	// fenced marks a node being evicted: it applies no further frame, so the
	// cursors stand still. streamsMu guards both and ingest, and a frame's
	// whole decision and apply (handleIngest) is one critical section under
	// it.
	streamsMu sync.Mutex
	streams   map[string]int64
	fenced    bool
	ingest    runtime.IngestStats
}

// NewNode builds a node with its own monitor over the model.
func NewNode(p *core.PrivacyLTS, cfg NodeConfig) (*Node, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("cluster: node needs a name")
	}
	monitor, err := runtime.NewMonitor(p, runtime.Config{Assessments: cfg.assessments})
	if err != nil {
		return nil, fmt.Errorf("cluster: node %q: %w", cfg.Name, err)
	}
	n := &Node{
		name:    cfg.Name,
		monitor: monitor,
		initial: p.InitialState(),
		streams: make(map[string]int64),
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
	return n, nil
}

// Name returns the node's ring name.
func (n *Node) Name() string { return n.name }

// Monitor exposes the node's monitor (management plane: registration in
// tests and benchmarks, alert queries).
func (n *Node) Monitor() *runtime.Monitor { return n.monitor }

// Handler returns the node's HTTP handler.
func (n *Node) Handler() http.Handler { return n.mux }

// Stats snapshots the node's counters. It waits for an apply in progress.
func (n *Node) Stats() NodeStats {
	n.streamsMu.Lock()
	ingest := n.ingest
	n.streamsMu.Unlock()
	records, shapes := n.monitor.AlertLogSize()
	return NodeStats{
		Frames:          n.frames.Load(),
		DecodeErrors:    n.decodeErrors.Load(),
		DedupedFrames:   n.deduped.Load(),
		QueueDepth:      n.pending.Load(),
		HandoffInUsers:  n.handoffIn.Load(),
		HandoffOutUsers: n.handoffOut.Load(),
		FailoverInUsers: n.failoverIn.Load(),
		Ready:           n.ready(),
		Ingest:          ingest,
		AlertRecords:    int64(records),
		AlertShapes:     int64(shapes),
	}
}

// ready reports the readiness half of the health split. It reads atomics
// only, so a probe never waits for an apply.
func (n *Node) ready() bool {
	return !n.draining.Load() && n.receiving.Load() == 0
}

// Quiesce blocks until no ingest request holds a decoded frame it has not
// yet applied (or ctx is done). Every acknowledged frame is already applied,
// so the router's Flush plus every node's Quiesce is the cluster-wide
// happens-before edge tests rely on.
func (n *Node) Quiesce(ctx context.Context) error {
	return waitZero(ctx, &n.pending)
}

// waitZero polls until n reads zero or ctx is done. It is the package's one
// wait on a counter other goroutines count down: events of decoded frames a
// node has yet to apply, handoff requests a node is serving.
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

// Close marks the node as draining for good: /readyz answers 503 from here
// on. The node owns no goroutine, so nothing else is left to stop.
func (n *Node) Close() { n.draining.Store(true) }

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
// fence(true) returns no apply is in progress and no handler applies another
// frame: the users' snapshots show exactly what the stream cursors say, so the
// eviction's re-route neither loses nor repeats a frame.
func (n *Node) fence(on bool) {
	n.streamsMu.Lock()
	n.fenced = on
	n.streamsMu.Unlock()
}

// ingestResponse is the /ingest reply body.
type ingestResponse struct {
	// Accepted counts the request's frames applied or skipped as duplicates;
	// a client whose request failed part-way resends from frame Accepted.
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

// handleIngest applies the frames of the request body to the monitor in
// order. The whole body is one frame sequence; the 202 comes after the last
// frame is applied, and every response reports how many frames were accepted,
// so a request that fails mid-stream tells the client exactly where to
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
		// One critical section decides and applies the frame: a fenced node
		// refuses; a frame below its stream's cursor was applied by a delivery
		// whose response got lost; otherwise the batch is applied and the
		// cursor moves past it (frames a client dropped leave gaps; the cursor
		// only moves forward). One section, not one per question, so fence and
		// StreamCursor see no frame half-way through.
		idx, count := base+int64(accepted), int64(len(batch))
		n.pending.Add(count)
		n.streamsMu.Lock()
		fenced := n.fenced
		duplicate := !fenced && stream != "" && idx < n.streams[stream]
		if !fenced && !duplicate {
			n.ingest.Merge(n.monitor.IngestBatch(batch))
			if stream != "" {
				n.streams[stream] = idx + 1
			}
			n.frames.Add(1)
		}
		n.streamsMu.Unlock()
		n.pending.Add(-count)
		switch {
		case fenced:
			writeJSON(w, http.StatusServiceUnavailable, ingestResponse{Accepted: accepted, Error: "node is being evicted"})
			return
		case duplicate:
			n.deduped.Add(1)
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
	// Sized from the declared length up to one chunk's, a chunk's buffer is
	// allocated once; a longer body grows it as its bytes arrive, so a sender
	// cannot make the node hold more than it has sent.
	buf := bytes.NewBuffer(make([]byte, 0, min(max(r.ContentLength, 0), handoffChunkBytes)+bytes.MinRead))
	_, err := buf.ReadFrom(io.LimitReader(r.Body, MaxHandoffBytes+1))
	body := buf.Bytes()
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
// a draining node is still alive. Like /readyz it reads atomics only, so a
// busy node answers without waiting for its apply.
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
		"draining":  n.draining.Load(),
		"receiving": n.receiving.Load() > 0,
		"pending":   n.pending.Load(),
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
