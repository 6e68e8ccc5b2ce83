package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"privascope/internal/casestudy"
)

// fakeClock records the router's backoff sleeps instead of sleeping.
type fakeClock struct {
	mu     sync.Mutex
	sleeps []time.Duration
}

func (f *fakeClock) sleep(_ context.Context, d time.Duration) {
	f.mu.Lock()
	f.sleeps = append(f.sleeps, d)
	f.mu.Unlock()
}

func (f *fakeClock) recorded() []time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]time.Duration(nil), f.sleeps...)
}

// TestRouterBackoffSchedule pins the retry backoff under a fake clock: a
// persistently failing node is retried on a jittered exponential schedule —
// each sleep within [d/2, d] for d = min(base<<k, max) — not in a tight
// loop, and the seeded jitter makes the exact schedule reproducible.
func TestRouterBackoffSchedule(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()

	run := func() []time.Duration {
		clock := &fakeClock{}
		router, err := NewRouter(RouterConfig{
			Nodes:             map[string]string{"only": srv.URL},
			BatchEvents:       4,
			MaxRetries:        4,
			BackoffBase:       10 * time.Millisecond,
			BackoffMax:        40 * time.Millisecond,
			BackoffJitterSeed: 99,
			HTTPClient:        srv.Client(),
		})
		if err != nil {
			t.Fatal(err)
		}
		router.sleepFn = clock.sleep
		if err := router.SendBatch(context.Background(), casestudy.MedicalServiceEvents("u")[:4]); err != nil {
			t.Fatal(err)
		}
		if err := router.Flush(context.Background()); err == nil {
			t.Fatal("Flush returned nil after a dropped sequence")
		}
		stats := router.Stats()
		if stats.Dropped != 1 || stats.Retries != 3 {
			t.Fatalf("stats = %+v, want 1 dropped sequence and 3 retries", stats)
		}
		_ = router.Close()
		return clock.recorded()
	}

	sleeps := run()
	// 4 attempts, a backoff after each failure: 10, 20, 40, 40ms nominal,
	// jittered into [d/2, d].
	want := []time.Duration{10, 20, 40, 40}
	if len(sleeps) != len(want) {
		t.Fatalf("recorded %d sleeps %v, want %d", len(sleeps), sleeps, len(want))
	}
	for i, d := range sleeps {
		nominal := want[i] * time.Millisecond
		if d < nominal/2 || d > nominal {
			t.Errorf("sleep %d = %v, want within [%v, %v]", i, d, nominal/2, nominal)
		}
	}
	// Same seed, same schedule: the jitter is deterministic.
	again := run()
	for i := range sleeps {
		if sleeps[i] != again[i] {
			t.Fatalf("sleep %d differs across same-seed runs: %v vs %v", i, sleeps[i], again[i])
		}
	}
}

// TestRouterStatsPersistent5xx pins the drop accounting: a sequence
// abandoned after MaxRetries counts Dropped exactly once (however many
// frames it carried), with the frames and events in DroppedFrames /
// DroppedEvents, and Retries counting each re-attempt.
func TestRouterStatsPersistent5xx(t *testing.T) {
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()
	router, err := NewRouter(RouterConfig{
		Nodes:       map[string]string{"only": srv.URL},
		BatchEvents: 2,
		MaxInFlight: 4,
		MaxRetries:  3,
		BackoffBase: time.Microsecond,
		BackoffMax:  2 * time.Microsecond,
		HTTPClient:  srv.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// 4 events = 2 frames; MaxInFlight 4 lets both queue before the sender
	// picks them up, so they ride one sequence.
	if err := router.SendBatch(context.Background(), casestudy.MedicalServiceEvents("u")[:4]); err != nil {
		t.Fatal(err)
	}
	if err := router.Flush(context.Background()); err == nil {
		t.Fatal("Flush returned nil after dropped sequences")
	}
	stats := router.Stats()
	if stats.Dropped == 0 || stats.Dropped+stats.FramesSent > 2 {
		t.Fatalf("stats = %+v: 2 frames in at most 2 sequences, none delivered", stats)
	}
	if stats.DroppedEvents != 4 || stats.DroppedFrames != 2 {
		t.Fatalf("stats = %+v, want all 4 events / 2 frames dropped", stats)
	}
	// Retries is per re-attempt: MaxRetries attempts per sequence, so
	// (MaxRetries-1) retries per dropped sequence.
	if want := stats.Dropped * 2; stats.Retries != want {
		t.Fatalf("Retries = %d, want %d (2 per abandoned sequence)", stats.Retries, want)
	}
	if router.Err() == nil {
		t.Fatal("dropped sequence left Err() nil")
	}
	_ = router.Close()
}

// TestRouter429TrimAcrossRetries pins the partial-accept protocol end to
// end: a mid-sequence 429 with {accepted:k} credits the k frames exactly
// once, the resend starts at frame base+k (visible in the Frame-Base
// header), and the credit survives a later 5xx on the remainder.
func TestRouter429TrimAcrossRetries(t *testing.T) {
	var mu sync.Mutex
	var bases []string
	var delivered int
	step := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		bases = append(bases, r.Header.Get(HeaderFrameBase))
		switch step {
		case 0:
			step = 1
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"accepted":1,"error":"queue full"}`))
		case 1:
			step = 2
			http.Error(w, "boom", http.StatusInternalServerError)
		default:
			fr := NewFrameReader(r.Body)
			accepted := 0
			for {
				batch, err := fr.Read()
				if err != nil {
					break
				}
				delivered += len(batch)
				accepted++
			}
			w.WriteHeader(http.StatusAccepted)
			w.Write([]byte(`{"accepted":` + strconv.Itoa(accepted) + `}`))
		}
	}))
	defer srv.Close()

	clock := &fakeClock{}
	router, err := NewRouter(RouterConfig{
		Nodes:       map[string]string{"only": srv.URL},
		BatchEvents: 2,
		MaxInFlight: 4,
		MaxRetries:  8,
		HTTPClient:  srv.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	router.sleepFn = clock.sleep
	// A sender posts whatever is queued when it wakes, so with a live sender
	// frame 0 sometimes left alone before frame 1 was cut and the 429 had no
	// sequence to split. Retire the sender NewRouter started and cut both
	// frames onto one whose loop starts only afterwards: the first POST then
	// always carries the two-frame sequence.
	router.memberMu.Lock()
	close(router.senders["only"].frames)
	router.senders["only"].cancel()
	staged := &nodeSender{name: "only", url: srv.URL, frames: make(chan cutFrame, 4)}
	staged.ctx, staged.cancel = context.WithCancel(context.Background())
	router.senders["only"] = staged
	router.memberMu.Unlock()
	events := casestudy.MedicalServiceEvents("u")[:4] // 2 frames, one sequence
	if err := router.SendBatch(context.Background(), events); err != nil {
		t.Fatal(err)
	}
	if got := staged.pending.Load(); got != 2 {
		t.Fatalf("%d frames cut before the sender starts, want 2", got)
	}
	router.sendersWG.Add(1)
	go router.sendLoop(staged, nil)
	if err := router.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	stats := router.Stats()
	if stats.FramesSent != 2 || stats.EventsSent != 4 || stats.Dropped != 0 {
		t.Fatalf("stats = %+v, want 2 frames / 4 events sent, none dropped", stats)
	}
	if stats.Rejected429 != 1 || stats.Retries != 2 {
		t.Fatalf("stats = %+v, want 1 rejection and 2 retries", stats)
	}
	mu.Lock()
	defer mu.Unlock()
	if delivered != 2 {
		t.Fatalf("server applied %d events, want only frame 1's 2 (frame 0 was accepted by the 429)", delivered)
	}
	// Request 0 starts the sequence at frame 0; after {accepted:1} both the
	// 5xx retry and the final delivery resume at frame 1.
	if len(bases) != 3 || bases[0] != "0" || bases[1] != "1" || bases[2] != "1" {
		t.Fatalf("Frame-Base headers = %v, want [0 1 1]", bases)
	}
	_ = router.Close()
}

// TestIngestDedupOnRetry pins the receiver half of exactly-once: redelivering
// an already-applied frame on the same stream is acknowledged but not
// re-applied.
func TestIngestDedupOnRetry(t *testing.T) {
	node := newTestNode(t, NodeConfig{})
	if err := node.Monitor().RegisterUser(casestudy.PatientProfile()); err != nil {
		t.Fatal(err)
	}
	frame := mustFrame(t, casestudy.MedicalServiceEvents(casestudy.PatientProfile().ID)[:3])
	post := func() (int, ingestResponse) {
		req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(frame))
		req.Header.Set(HeaderStream, "s1")
		req.Header.Set(HeaderFrameBase, "0")
		w := httptest.NewRecorder()
		node.Handler().ServeHTTP(w, req)
		var ir ingestResponse
		if err := json.Unmarshal(w.Body.Bytes(), &ir); err != nil {
			t.Fatalf("ingest response %q is not JSON: %v", w.Body.String(), err)
		}
		return w.Code, ir
	}
	code, ir := post()
	if code != http.StatusAccepted || ir.Accepted != 1 {
		t.Fatalf("first delivery: %d %+v", code, ir)
	}
	code, ir = post()
	if code != http.StatusAccepted || ir.Accepted != 1 {
		t.Fatalf("redelivery: %d %+v, want acknowledged", code, ir)
	}
	if err := node.Quiesce(context.Background()); err != nil {
		t.Fatal(err)
	}
	s := node.Stats()
	if s.Frames != 1 || s.Events != 3 || s.DedupedFrames != 1 {
		t.Fatalf("stats = %+v, want 1 frame / 3 events applied and 1 frame deduped", s)
	}
	if got := node.StreamCursor("s1"); got != 1 {
		t.Fatalf("stream cursor = %d, want 1", got)
	}
	// A different stream is not deduplicated against s1's cursor.
	req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(frame))
	req.Header.Set(HeaderStream, "s2")
	req.Header.Set(HeaderFrameBase, "0")
	w := httptest.NewRecorder()
	node.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusAccepted {
		t.Fatalf("fresh stream rejected: %d", w.Code)
	}
	if err := node.Quiesce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s := node.Stats(); s.Frames != 2 {
		t.Fatalf("stats = %+v, want the fresh stream's frame applied", s)
	}
	// A malformed Frame-Base is a client bug, not a frame to guess about.
	req = httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(frame))
	req.Header.Set(HeaderStream, "s3")
	req.Header.Set(HeaderFrameBase, "not-a-number")
	w = httptest.NewRecorder()
	node.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("bad Frame-Base returned %d, want 400", w.Code)
	}
}

// TestReadyzSplitsFromHealthz pins the health split: liveness stays 200
// while readiness answers 503 during a drain and during a handoff import.
func TestReadyzSplitsFromHealthz(t *testing.T) {
	node := newTestNode(t, NodeConfig{})
	get := func(path string) int {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		w := httptest.NewRecorder()
		node.Handler().ServeHTTP(w, req)
		return w.Code
	}
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("fresh node /readyz = %d", got)
	}
	node.BeginDrain()
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("draining node /readyz = %d, want 503", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("draining node /healthz = %d, want 200: draining is not dead", got)
	}
	// A removal quiesces the node after BeginDrain; the quiesce's own
	// temporary not-ready mark must not clear the permanent one on its way out.
	if err := node.Quiesce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("draining node /readyz after Quiesce = %d, want 503: a node being removed reported ready again", got)
	}
	node.draining.Store(false)
	if err := node.Quiesce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz after a plain Quiesce = %d, want 200: its not-ready mark is temporary", got)
	}
	node.receiving.Add(1)
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("receiving node /readyz = %d, want 503", got)
	}
	node.receiving.Add(-1)
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("recovered node /readyz = %d", got)
	}
}
