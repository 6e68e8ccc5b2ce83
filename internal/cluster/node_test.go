package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"privascope/internal/casestudy"
	"privascope/internal/core"
	"privascope/internal/runtime"
	"privascope/internal/service"
)

// surgeryModel generates the healthcare case-study LTS once per test.
func surgeryModel(t testing.TB) *core.PrivacyLTS {
	t.Helper()
	p, err := core.Generate(casestudy.Surgery())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func newTestNode(t testing.TB, cfg NodeConfig) *Node {
	t.Helper()
	if cfg.Name == "" {
		cfg.Name = "test-node"
	}
	n, err := NewNode(surgeryModel(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

func mustFrame(t testing.TB, events []service.Event) []byte {
	t.Helper()
	frame, err := EncodeFrame(events)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

func postIngest(t testing.TB, n *Node, body []byte) (*httptest.ResponseRecorder, ingestResponse) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	n.Handler().ServeHTTP(rec, req)
	var ir ingestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ir); err != nil {
		t.Fatalf("ingest response %q is not JSON: %v", rec.Body.String(), err)
	}
	return rec, ir
}

// postHandoff posts one PSHO frame to the node's /handoff under the reason
// label ("" sends none).
func postHandoff(n *Node, frame []byte, reason string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/handoff", bytes.NewReader(frame))
	if reason != "" {
		req.Header.Set(HeaderHandoffReason, reason)
	}
	rec := httptest.NewRecorder()
	n.Handler().ServeHTTP(rec, req)
	return rec
}

// TestNodeIngestAppliesEvents: a 202 from /ingest means applied — the
// counters, the user's state and the stream cursor all show the frame the
// moment the response is written, with no Quiesce in between.
func TestNodeIngestAppliesEvents(t *testing.T) {
	n := newTestNode(t, NodeConfig{})
	profile := casestudy.PatientProfile()
	if err := n.Monitor().RegisterUser(profile); err != nil {
		t.Fatal(err)
	}
	events := casestudy.MedicalServiceEvents(profile.ID)
	req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(mustFrame(t, events)))
	req.Header.Set(HeaderStream, "s1")
	req.Header.Set(HeaderFrameBase, "0")
	rec := httptest.NewRecorder()
	n.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("ingest: status %d: %s", rec.Code, rec.Body.String())
	}
	if s := n.Stats(); s.Ingest.Events != len(events) || s.Ingest.Matched != len(events) || s.QueueDepth != 0 {
		t.Fatalf("stats after the 202: %+v, want %d events applied and matched, none pending", s, len(events))
	}
	direct, err := runtime.NewMonitor(surgeryModel(t), runtime.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := direct.RegisterUser(profile); err != nil {
		t.Fatal(err)
	}
	direct.IngestBatch(events)
	want, _ := cursorOf(direct, profile.ID)
	if got, ok := cursorOf(n.Monitor(), profile.ID); !ok || got != want {
		t.Fatalf("user state after the 202 = %q (registered %v), want %q", got, ok, want)
	}
	if got := n.StreamCursor("s1"); got != 1 {
		t.Fatalf("stream cursor after the 202 = %d, want 1", got)
	}
}

// TestNodeFenceRacingIngest: concurrent deliveries of one stream race an
// eviction's fence. Once fence(true) returns, what the node applied is
// exactly the frames below its stream cursor, each once, and nothing is
// applied afterwards: every delivery still running is refused.
func TestNodeFenceRacingIngest(t *testing.T) {
	const frames, posters = 256, 8
	n := newTestNode(t, NodeConfig{})
	profile := casestudy.PatientProfile()
	if err := n.Monitor().RegisterUser(profile); err != nil {
		t.Fatal(err)
	}
	script := casestudy.MedicalServiceEvents(profile.ID)
	var body []byte
	for i := range frames {
		body = append(body, mustFrame(t, script[i%len(script):i%len(script)+1])...)
	}
	// Every poster redelivers the whole stream from frame 0, as a router
	// retrying after lost responses would: each frame is applied by whichever
	// delivery reaches it first and skipped by the others.
	codes := make(chan int, posters)
	for range posters {
		go func() {
			req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body))
			req.Header.Set(HeaderStream, "s1")
			req.Header.Set(HeaderFrameBase, "0")
			rec := httptest.NewRecorder()
			n.Handler().ServeHTTP(rec, req)
			codes <- rec.Code
		}()
	}
	for n.StreamCursor("s1") < frames/4 {
		time.Sleep(50 * time.Microsecond)
	}
	n.fence(true)
	cursor, fenced := n.StreamCursor("s1"), n.Stats()
	applied := func(s NodeStats) int64 {
		snap, _ := n.Monitor().ExportUser(profile.ID)
		if s.Frames != snap.Applied || int64(s.Ingest.Events) != snap.Applied {
			t.Errorf("stats %+v disagree with the user's %d applied events", s, snap.Applied)
		}
		return snap.Applied
	}
	if got := applied(fenced); got != cursor {
		t.Fatalf("at the fence %d frames applied, want the %d below the stream cursor", got, cursor)
	}
	for range posters {
		if code := <-codes; code != http.StatusServiceUnavailable && !(code == http.StatusAccepted && cursor == frames) {
			t.Errorf("a delivery racing the fence answered %d with the cursor at %d of %d", code, cursor, frames)
		}
	}
	if after := n.Stats(); applied(after) != cursor || n.StreamCursor("s1") != cursor {
		t.Fatalf("after the fence: %d events applied, cursor %d; want both still %d", after.Ingest.Events, n.StreamCursor("s1"), cursor)
	}
}

func TestNodeIngestRejectsMalformedFrames(t *testing.T) {
	n := newTestNode(t, NodeConfig{})
	rec, _ := postIngest(t, n, []byte("PSEFgarbage-that-is-not-a-frame"))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed frame: status %d, want 400", rec.Code)
	}
	if n.Stats().DecodeErrors != 1 {
		t.Fatalf("decode errors = %d, want 1", n.Stats().DecodeErrors)
	}
}

func TestNodeRegisterAndAlertsEndpoints(t *testing.T) {
	n := newTestNode(t, NodeConfig{})
	// A registration is the handoff of a fresh snapshot; the JSON endpoint
	// that used to install users is gone.
	payload, err := EncodeHandoff([]runtime.UserSnapshot{{Profile: casestudy.PatientProfile()}})
	if err != nil {
		t.Fatal(err)
	}
	if rec := postHandoff(n, payload, ReasonRegister); rec.Code != http.StatusOK {
		t.Fatalf("register: status %d: %s", rec.Code, rec.Body.String())
	}
	req := httptest.NewRequest(http.MethodPost, "/register", bytes.NewReader(payload))
	rec := httptest.NewRecorder()
	n.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("POST /register: status %d, want 404: the route is gone", rec.Code)
	}

	// A denied operation raises an alert that must appear on /alerts.
	events := []service.Event{{
		Actor: casestudy.ActorNurse, Action: core.ActionRead, Datastore: casestudy.StoreEHR,
		UserID: casestudy.PatientProfile().ID, Fields: []string{casestudy.FieldDiagnosis}, Denied: true,
	}}
	if rec, ir := postIngest(t, n, mustFrame(t, events)); rec.Code != http.StatusAccepted || ir.Accepted != 1 {
		t.Fatalf("ingest: status %d accepted %d", rec.Code, ir.Accepted)
	}
	if err := n.Quiesce(context.Background()); err != nil {
		t.Fatal(err)
	}
	req = httptest.NewRequest(http.MethodGet, "/alerts", nil)
	rec = httptest.NewRecorder()
	n.Handler().ServeHTTP(rec, req)
	var alerts []alertJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &alerts); err != nil {
		t.Fatal(err)
	}
	if len(alerts) != 1 || alerts[0].Kind != "denied-operation" {
		t.Fatalf("alerts = %+v, want one denied-operation", alerts)
	}
}

func TestNodeMetricsAndPprof(t *testing.T) {
	n := newTestNode(t, NodeConfig{})
	profile := casestudy.PatientProfile()
	if err := n.Monitor().RegisterUser(profile); err != nil {
		t.Fatal(err)
	}
	events := casestudy.MedicalServiceEvents(profile.ID)
	denied := events[0]
	denied.Denied = true
	if rec, _ := postIngest(t, n, mustFrame(t, append(events, denied))); rec.Code != http.StatusAccepted {
		t.Fatalf("ingest: status %d", rec.Code)
	}

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	n.Handler().ServeHTTP(rec, req)
	body := rec.Body.String()
	for _, want := range []string{
		`privascope_node_ingested_events_total{node="test-node"} 7`,
		`privascope_node_frames_total{node="test-node"} 1`,
		`privascope_node_matched_events_total{node="test-node"} 6`,
		`privascope_node_queue_depth{node="test-node"} 0`,
		`privascope_node_alerts_total{node="test-node",kind="denied-operation"} 1`,
		`privascope_node_alert_log_records{node="test-node"} 1`,
		`privascope_node_alert_event_shapes{node="test-node"} 1`,
		"# TYPE privascope_node_alert_log_records gauge",
		"# TYPE privascope_node_ingested_events_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	req = httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil)
	rec = httptest.NewRecorder()
	n.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Errorf("/debug/pprof/: status %d", rec.Code)
	}
}
