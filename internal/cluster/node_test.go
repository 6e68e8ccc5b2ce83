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

func TestNodeIngestAppliesEvents(t *testing.T) {
	n := newTestNode(t, NodeConfig{})
	profile := casestudy.PatientProfile()
	if err := n.Monitor().RegisterUser(profile); err != nil {
		t.Fatal(err)
	}
	events := casestudy.MedicalServiceEvents(profile.ID)
	rec, ir := postIngest(t, n, mustFrame(t, events))
	if rec.Code != http.StatusAccepted || ir.Accepted != 1 {
		t.Fatalf("ingest: status %d, accepted %d; want 202, 1", rec.Code, ir.Accepted)
	}
	if err := n.Quiesce(context.Background()); err != nil {
		t.Fatal(err)
	}
	stats := n.Stats()
	if stats.Events != int64(len(events)) || stats.Ingest.Matched != len(events) {
		t.Fatalf("stats after ingest: %+v, want %d accepted and matched", stats, len(events))
	}
	if _, ok := n.Monitor().CurrentState(profile.ID); !ok {
		t.Fatal("user has no cursor after ingest")
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

func TestNodeBackpressure429(t *testing.T) {
	// A queue bound below the frame size forces deterministic admission
	// failure regardless of how fast the drain worker runs.
	n := newTestNode(t, NodeConfig{QueueEvents: 4, RetryAfter: 3 * time.Second})
	profile := casestudy.PatientProfile()
	if err := n.Monitor().RegisterUser(profile); err != nil {
		t.Fatal(err)
	}
	small := mustFrame(t, casestudy.MedicalServiceEvents(profile.ID)[:2])
	big := mustFrame(t, casestudy.MedicalServiceEvents(profile.ID))
	rec, ir := postIngest(t, n, append(append([]byte(nil), small...), big...))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("oversized second frame: status %d, want 429", rec.Code)
	}
	if ir.Accepted != 1 {
		t.Fatalf("429 reported %d accepted frames, want 1 (the client resumes there)", ir.Accepted)
	}
	if got := rec.Header().Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After = %q, want %q", got, "3")
	}
	if n.Stats().Rejected != 6 {
		t.Fatalf("rejected events = %d, want 6", n.Stats().Rejected)
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
	if rec, _ := postIngest(t, n, mustFrame(t, events)); rec.Code != http.StatusAccepted {
		t.Fatalf("ingest: status %d", rec.Code)
	}
	if err := n.Quiesce(context.Background()); err != nil {
		t.Fatal(err)
	}

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	n.Handler().ServeHTTP(rec, req)
	body := rec.Body.String()
	for _, want := range []string{
		`privascope_node_events_total{node="test-node"} 6`,
		`privascope_node_frames_total{node="test-node"} 1`,
		`privascope_node_matched_events_total{node="test-node"} 6`,
		`privascope_node_queue_depth{node="test-node"} 0`,
		`privascope_node_alerts_total{node="test-node",kind="denied-operation"} 0`,
		"# TYPE privascope_node_events_total counter",
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
