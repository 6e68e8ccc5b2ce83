package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"privascope/internal/casestudy"
	"privascope/internal/core"
	"privascope/internal/risk"
	"privascope/internal/runtime"
	"privascope/internal/service"
)

// goldenAlertLines are the three alerts of the privaserve healthcare replay
// (cmd/privaserve's golden transcript), formatted as privaserve prints them.
// The cluster must reproduce them exactly — same kinds, same messages — for
// every node count.
var goldenAlertLines = []string{
	`ALERT [denied-operation]: access-control denied read by "nurse" on ehr.[diagnosis]`,
	`ALERT [risk]: medium-risk disclosure event for user "patient-1": non-allowed actor "administrator" may read date_of_birth, diagnosis, medical_issues, name, treatment from datastore "ehr" although no declared flow requires it; most sensitive field "diagnosis" (impact 0.90/high, likelihood 0.15/low) => risk medium`,
	`ALERT [unmodelled-behaviour]: observed read of [diagnosis] by "researcher" on "ehr" has no matching transition from state s21; the design model and the running system disagree`,
}

// goldenTrace is the replay fixture of cmd/privaserve's golden test: the
// consented medical-service run, the administrator's risky read, unmodelled
// researcher behaviour, a denied operation, and one event for an
// unregistered user.
func goldenTrace() []service.Event {
	userID := casestudy.PatientProfile().ID
	return append(casestudy.MedicalServiceEvents(userID),
		service.Event{Actor: casestudy.ActorAdministrator, Action: core.ActionRead, Datastore: casestudy.StoreEHR, UserID: userID,
			Fields: []string{casestudy.FieldDiagnosis}},
		service.Event{Actor: casestudy.ActorResearcher, Action: core.ActionRead, Datastore: casestudy.StoreEHR, UserID: userID,
			Fields: []string{casestudy.FieldDiagnosis}},
		service.Event{Actor: casestudy.ActorNurse, Action: core.ActionRead, Datastore: casestudy.StoreEHR, UserID: userID,
			Fields: []string{casestudy.FieldDiagnosis}, Denied: true},
		service.Event{Actor: casestudy.ActorReceptionist, Action: core.ActionCollect, UserID: "someone-else",
			Fields: []string{casestudy.FieldName}},
	)
}

// alertLines formats alerts as privaserve prints them, sorted for a
// node-count-independent comparison.
func alertLines(alerts []runtime.Alert) []string {
	lines := make([]string, len(alerts))
	for i, a := range alerts {
		lines[i] = fmt.Sprintf("ALERT [%s]: %s", a.Kind, a.Message)
	}
	sort.Strings(lines)
	return lines
}

// TestClusterGoldenTraceAcrossNodeCounts replays the privaserve golden trace
// through a real 1-, 2- and 4-node cluster — h2c servers, binary frames, the
// consistent-hash router — and requires the merged alert stream to match the
// golden transcript's alerts for every node count.
func TestClusterGoldenTraceAcrossNodeCounts(t *testing.T) {
	p := surgeryModel(t)
	for _, nodes := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			c, err := StartLocal(p, nodes, NodeConfig{}, RouterConfig{
				tuning: routerTuning{
					// A small batch threshold exercises multi-frame flushes even
					// on the ten-event trace.
					batchEvents: 3,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := c.Stop(context.Background()); err != nil {
					t.Errorf("Stop: %v", err)
				}
			}()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := c.Router.Register(ctx, []risk.UserProfile{casestudy.PatientProfile()}); err != nil {
				t.Fatal(err)
			}
			if err := c.Router.SendBatch(ctx, goldenTrace()); err != nil {
				t.Fatal(err)
			}
			if err := c.Quiesce(ctx); err != nil {
				t.Fatal(err)
			}

			got := alertLines(c.Alerts())
			want := append([]string(nil), goldenAlertLines...)
			sort.Strings(want)
			if len(got) != len(want) {
				t.Fatalf("cluster raised %d alerts, want %d:\n%v", len(got), len(want), got)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("alert %d:\n got %s\nwant %s", i, got[i], want[i])
				}
			}

			// The unregistered user's event is counted, not silently lost.
			var unregistered, events int
			for _, n := range c.Nodes {
				s := n.Stats()
				unregistered += s.Ingest.Unregistered
				events += s.Ingest.Events
			}
			if unregistered != 1 {
				t.Errorf("unregistered events = %d, want 1", unregistered)
			}
			if events != len(goldenTrace()) {
				t.Errorf("ingested events = %d, want %d", events, len(goldenTrace()))
			}

			// And the fleet's state matches a single-process monitor fed the
			// same trace directly.
			direct, err := runtime.NewMonitor(p, runtime.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if err := direct.RegisterUser(casestudy.PatientProfile()); err != nil {
				t.Fatal(err)
			}
			direct.IngestBatch(goldenTrace())
			if want := alertLines(direct.Alerts()); !equalStrings(got, want) {
				t.Errorf("cluster alerts differ from the direct monitor:\n got %v\nwant %v", got, want)
			}
			owner := c.Router.Ring().Owner(casestudy.PatientProfile().ID)
			for _, n := range c.Nodes {
				if n.Name() != owner {
					continue
				}
				gotCursor, ok1 := cursorOf(n.Monitor(), casestudy.PatientProfile().ID)
				wantCursor, ok2 := cursorOf(direct, casestudy.PatientProfile().ID)
				if !ok1 || !ok2 || gotCursor != wantCursor {
					t.Errorf("owner cursor %v (%v) differs from direct monitor %v (%v)", gotCursor, ok1, wantCursor, ok2)
				}
			}
		})
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestClusterServesHTTP2 pins the transport: the fleet speaks unencrypted
// HTTP/2 between router and nodes, not HTTP/1.1 with a new connection per
// flush.
func TestClusterServesHTTP2(t *testing.T) {
	node := newTestNode(t, NodeConfig{})
	srv, err := StartNodeServer(node, "")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop(context.Background())
	client := h2cClient()
	defer client.CloseIdleConnections()
	resp, err := client.Get(srv.URL() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.ProtoMajor != 2 {
		t.Fatalf("healthz served over %s, want HTTP/2", resp.Proto)
	}
}

// TestRouterHonorsRetryAfter drives the router against a server that rejects
// the first ingest attempt with 429 + Retry-After and asserts the frame is
// retried and delivered, with the backpressure visible in the stats.
func TestRouterHonorsRetryAfter(t *testing.T) {
	var attempts atomic.Int64
	var delivered atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"accepted":0,"error":"queue full"}`))
			return
		}
		fr := NewFrameReader(r.Body)
		accepted := 0
		for {
			batch, err := fr.Read()
			if err != nil {
				break
			}
			delivered.Add(int64(len(batch)))
			accepted++
		}
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"accepted":` + strconv.Itoa(accepted) + `}`))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	router, err := NewRouter(RouterConfig{
		Nodes: map[string]string{"only": srv.URL},
		tuning: routerTuning{
			batchEvents: 4,
			client:      srv.Client(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	events := casestudy.MedicalServiceEvents("patient-1")
	if err := router.SendBatch(context.Background(), events); err != nil {
		t.Fatal(err)
	}
	if err := router.Close(); err != nil {
		t.Fatal(err)
	}
	if got := delivered.Load(); got != int64(len(events)) {
		t.Fatalf("delivered %d events, want %d", got, len(events))
	}
	stats := router.Stats()
	if stats.Rejected429 == 0 || stats.Retries == 0 {
		t.Fatalf("backpressure not visible in stats: %+v", stats)
	}
	if stats.Dropped != 0 {
		t.Fatalf("dropped %d frames", stats.Dropped)
	}
}
