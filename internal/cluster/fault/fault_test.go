package fault

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// record is a base transport counting deliveries.
type record struct {
	delivered atomic.Int64
	status    int
}

func (r *record) RoundTrip(req *http.Request) (*http.Response, error) {
	r.delivered.Add(1)
	code := r.status
	if code == 0 {
		code = http.StatusOK
	}
	return &http.Response{
		Status:     http.StatusText(code),
		StatusCode: code,
		Header:     make(http.Header),
		Body:       io.NopCloser(strings.NewReader("ok")),
		Request:    req,
	}, nil
}

func get(t *testing.T, rt http.RoundTripper, url string) (*http.Response, error) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := rt.RoundTrip(req)
	if resp != nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	return resp, err
}

// TestScheduleDeterministic pins the injector's core property: the fault
// decision for (seed, host, ordinal) is a pure function — two transports
// with the same seed see identical schedules, a different seed a different
// one.
func TestScheduleDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, Drop: 0.2, Reset: 0.1, Status: 0.1, Delay: 0.1,
		DelayMin: time.Microsecond, DelayMax: 2 * time.Microsecond}
	trial := func(cfg Config) []string {
		tr := New(&record{}, cfg)
		var out []string
		for i := 0; i < 200; i++ {
			resp, err := get(t, tr, "http://hostA:1/ingest")
			switch {
			case err != nil:
				out = append(out, "err:"+err.Error())
			default:
				out = append(out, "ok:"+resp.Status)
			}
		}
		return out
	}
	a, b := trial(cfg), trial(cfg)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d diverged between same-seed runs: %q vs %q", i, a[i], b[i])
		}
	}
	cfg2 := cfg
	cfg2.Seed = 43
	c := trial(cfg2)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestFaultKinds drives each rate at 1.0 and checks the observable contract:
// request faults never reach the base transport, response drops always do.
func TestFaultKinds(t *testing.T) {
	t.Run("drop", func(t *testing.T) {
		base := &record{}
		tr := New(base, Config{Drop: 1})
		_, err := get(t, tr, "http://h:1/x")
		if !errors.Is(err, ErrInjectedDrop) {
			t.Fatalf("err = %v, want ErrInjectedDrop", err)
		}
		if base.delivered.Load() != 0 {
			t.Fatal("dropped request reached the base transport")
		}
	})
	t.Run("reset", func(t *testing.T) {
		base := &record{}
		tr := New(base, Config{Reset: 1})
		_, err := get(t, tr, "http://h:1/x")
		if !errors.Is(err, ErrInjectedReset) {
			t.Fatalf("err = %v, want ErrInjectedReset", err)
		}
		if base.delivered.Load() != 0 {
			t.Fatal("reset request reached the base transport")
		}
	})
	t.Run("status", func(t *testing.T) {
		base := &record{}
		tr := New(base, Config{Status: 1, StatusCode: 503})
		resp, err := get(t, tr, "http://h:1/x")
		if err != nil || resp.StatusCode != 503 {
			t.Fatalf("resp = %v err = %v, want synthesized 503", resp, err)
		}
		if base.delivered.Load() != 0 {
			t.Fatal("status-faulted request reached the base transport")
		}
	})
	t.Run("response-drop", func(t *testing.T) {
		base := &record{}
		tr := New(base, Config{ResponseDrop: 1})
		_, err := get(t, tr, "http://h:1/x")
		if !errors.Is(err, ErrInjectedDrop) {
			t.Fatalf("err = %v, want ErrInjectedDrop", err)
		}
		if base.delivered.Load() != 1 {
			t.Fatalf("delivered = %d, want 1: response drops must deliver first", base.delivered.Load())
		}
	})
	t.Run("delay", func(t *testing.T) {
		base := &record{}
		tr := New(base, Config{Delay: 1, DelayMin: time.Microsecond, DelayMax: 2 * time.Microsecond})
		resp, err := get(t, tr, "http://h:1/x")
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("resp = %v err = %v, want delayed 200", resp, err)
		}
		if base.delivered.Load() != 1 {
			t.Fatal("delayed request never delivered")
		}
	})
}

// TestPartitionWindow checks that a partition blackholes exactly its ordinal
// window on exactly its host.
func TestPartitionWindow(t *testing.T) {
	base := &record{}
	tr := New(base, Config{Partitions: []Partition{{Host: "a:1", From: 2, To: 4}}})
	for i := 0; i < 6; i++ {
		_, err := get(t, tr, "http://a:1/x")
		inWindow := i >= 2 && i < 4
		if (err != nil) != inWindow {
			t.Fatalf("ordinal %d: err = %v, partition window is [2,4)", i, err)
		}
	}
	if _, err := get(t, tr, "http://b:1/x"); err != nil {
		t.Fatalf("partition of a:1 leaked to b:1: %v", err)
	}
	if got := tr.Stats().Partitioned; got != 2 {
		t.Fatalf("Partitioned = %d, want 2", got)
	}
}

// TestHangWindow: a request in a Hang window never reaches the base transport
// and returns only when its own context ends, with that context's error;
// requests outside the window, or to another host, pass. And because the
// window is selected by ordinal, not by the uniform draw, adding one changes
// no other request's fault: every existing seed keeps its schedule.
func TestHangWindow(t *testing.T) {
	base := &record{}
	tr := New(base, Config{Hang: []Partition{{Host: "a:1", From: 1, To: 2}}})
	if _, err := get(t, tr, "http://a:1/x"); err != nil {
		t.Fatalf("ordinal 0 is before the window: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://a:1/x", nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := tr.RoundTrip(req)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("the hung request returned (%v) while its context was live", err)
	case <-time.After(20 * time.Millisecond):
	}
	if _, err := get(t, tr, "http://b:1/x"); err != nil {
		t.Fatalf("the hang of a:1 leaked to b:1: %v", err)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("hung request failed with %v, want its context's error", err)
	}
	if _, err := get(t, tr, "http://a:1/x"); err != nil {
		t.Fatalf("ordinal 2 is past the window: %v", err)
	}
	if s := tr.Stats(); s.Hung != 1 || base.delivered.Load() != 3 {
		t.Fatalf("stats %+v, %d delivered: want 1 hung request and 3 delivered", s, base.delivered.Load())
	}

	// The schedule of every request outside the window is untouched.
	cfg := Config{Seed: 42, Drop: 0.2, Reset: 0.1, Status: 0.1, ResponseDrop: 0.1,
		Partitions: []Partition{{From: 4, To: 7}}}
	schedule := func(cfg Config, skip uint64) []string {
		tr := New(&record{}, cfg)
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // a hung request returns at once
		var out []string
		for i := uint64(0); i < 200; i++ {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://hostA:1/ingest", nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := tr.RoundTrip(req)
			switch {
			case i == skip:
			case err != nil:
				out = append(out, "err:"+err.Error())
			default:
				out = append(out, "ok:"+resp.Status)
			}
		}
		return out
	}
	const hung = 50
	plain := schedule(cfg, hung)
	cfg.Hang = []Partition{{From: hung, To: hung + 1}}
	with := schedule(cfg, hung)
	for i := range plain {
		if plain[i] != with[i] {
			t.Fatalf("a Hang window at ordinal %d moved another request's fault: %q became %q", hung, plain[i], with[i])
		}
	}
}

// TestPathsFilter checks that off-path requests bypass faults without
// consuming schedule ordinals.
func TestPathsFilter(t *testing.T) {
	base := &record{}
	tr := New(base, Config{Drop: 1, Paths: []string{"/ingest"}})
	if _, err := get(t, tr, "http://h:1/healthz"); err != nil {
		t.Fatalf("off-path request faulted: %v", err)
	}
	if _, err := get(t, tr, "http://h:1/ingest"); !errors.Is(err, ErrInjectedDrop) {
		t.Fatalf("on-path request not faulted: %v", err)
	}
	if got := tr.Stats().Requests; got != 1 {
		t.Fatalf("Requests = %d, want 1: off-path traffic must not consume ordinals", got)
	}
}

// TestAgainstRealServer is the end-to-end smoke: a real client through the
// injector against a real server, with a mixed schedule, stays functional —
// non-faulted requests succeed.
func TestAgainstRealServer(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	tr := New(http.DefaultTransport, Config{Seed: 7, Drop: 0.3, Status: 0.2,
		Delay: 0.1, DelayMin: time.Microsecond, DelayMax: 10 * time.Microsecond})
	client := &http.Client{Transport: tr}
	ok := 0
	for i := 0; i < 100; i++ {
		resp, err := client.Get(srv.URL + "/ingest")
		if err != nil {
			continue
		}
		if resp.StatusCode == http.StatusOK {
			ok++
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	s := tr.Stats()
	if ok == 0 || s.Dropped == 0 || s.Statuses == 0 {
		t.Fatalf("mixed schedule degenerate: ok=%d stats=%+v", ok, s)
	}
	if int64(ok) != s.Passed+s.Delayed {
		t.Fatalf("ok=%d but passed+delayed=%d", ok, s.Passed+s.Delayed)
	}
}
