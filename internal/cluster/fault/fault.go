// Package fault is a deterministic fault injector for the cluster's HTTP
// plane: a RoundTripper wrapper that drops, delays, resets, mis-statuses,
// partitions and black-holes requests according to a seeded splitmix64
// schedule. Every decision is a pure function of (seed, target host, per-host
// request ordinal), so a single-sender-per-host traffic pattern — which is
// exactly what the cluster Router produces — sees a reproducible fault
// sequence for a given seed, and a failing run can be replayed from the seed
// alone.
//
// Fault modes split into two families with very different semantics:
//
//   - Request faults (Drop, Reset, Status, Partition, Hang) fail the exchange
//     BEFORE the server sees it: nothing was delivered, so the client's
//     retry cannot double-apply anything. Hang is the one that does not fail
//     at once: the request is swallowed until its own context ends.
//   - Response faults (ResponseDrop) deliver the request and then lose the
//     answer: the server applied it, the client doesn't know. This is the
//     mode that exercises the receiver's stream-offset deduplication — the
//     retry is a duplicate and must be recognized as one.
package fault

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Partition makes a target unreachable for a window of its request ordinals
// [From, To): a deterministic stand-in for a network partition, asymmetric by
// construction (only the named host is affected; traffic to everyone else
// flows).
type Partition struct {
	// Host is the target's host:port; empty matches every host.
	Host string
	// From and To bound the affected per-host request ordinals, half-open.
	From, To uint64
}

// covers reports whether the window affects the host's request at ordinal.
func (p Partition) covers(host string, ordinal uint64) bool {
	return (p.Host == "" || p.Host == host) && ordinal >= p.From && ordinal < p.To
}

// Config is a fault schedule. Rates are probabilities in [0, 1], evaluated in
// the order Drop, Reset, Status, ResponseDrop, Delay from one uniform draw
// per request — at most one fault fires per request.
type Config struct {
	// Seed drives the schedule; the zero seed is a valid (and distinct)
	// schedule.
	Seed int64
	// Drop fails the request with a connection error before delivery.
	Drop float64
	// Reset fails the request with a connection-reset error before delivery.
	Reset float64
	// Status answers the request with StatusCode (default 503) without
	// delivering it.
	Status float64
	// StatusCode is the synthesized status (0 selects 503).
	StatusCode int
	// ResponseDrop delivers the request, then discards the response and
	// fails the exchange — the lost-ack case.
	ResponseDrop float64
	// Delay delivers the request after a deterministic delay drawn from
	// [DelayMin, DelayMax] (defaults 1ms..10ms).
	Delay    float64
	DelayMin time.Duration
	DelayMax time.Duration
	// Partitions are unreachability windows, checked before the rates.
	Partitions []Partition
	// Hang lists black-hole windows, checked after Partitions and before the
	// rates: a request in one is accepted and never answered — it blocks until
	// its own context ends and fails with that context's error. Like a
	// partition it is selected by ordinal, not by the uniform draw, so adding
	// one moves no other request's fault.
	Hang []Partition
	// Paths restricts faults to these URL paths (exact match); requests to
	// other paths pass through without consuming a schedule ordinal. Empty
	// means every path is eligible. Confining faults to /ingest keeps the
	// management plane (handoffs, registrations among them, and probes) out of
	// the schedule, so
	// the per-host ordinal sequence stays aligned with the router's FIFO
	// sender and the schedule stays reproducible.
	Paths []string
}

// Stats counts injected faults by kind.
type Stats struct {
	Requests      int64
	Dropped       int64
	Resets        int64
	Statuses      int64
	ResponseDrops int64
	Delayed       int64
	Partitioned   int64
	Hung          int64
	Passed        int64
}

// Transport injects faults per Config in front of a base RoundTripper.
type Transport struct {
	base http.RoundTripper
	cfg  Config

	mu       sync.Mutex
	ordinals map[string]uint64

	requests      atomic.Int64
	dropped       atomic.Int64
	resets        atomic.Int64
	statuses      atomic.Int64
	responseDrops atomic.Int64
	delayed       atomic.Int64
	partitioned   atomic.Int64
	hung          atomic.Int64
	passed        atomic.Int64
}

// ErrInjectedDrop and ErrInjectedReset are the synthetic transport errors,
// distinguishable from real network failures in test assertions.
var (
	ErrInjectedDrop  = errors.New("fault: injected connection drop")
	ErrInjectedReset = errors.New("fault: injected connection reset")
)

// New wraps base (nil selects http.DefaultTransport) with the schedule.
func New(base http.RoundTripper, cfg Config) *Transport {
	if base == nil {
		base = http.DefaultTransport
	}
	if cfg.StatusCode == 0 {
		cfg.StatusCode = http.StatusServiceUnavailable
	}
	if cfg.DelayMin <= 0 {
		cfg.DelayMin = time.Millisecond
	}
	if cfg.DelayMax < cfg.DelayMin {
		cfg.DelayMax = 10 * time.Millisecond
	}
	return &Transport{base: base, cfg: cfg, ordinals: make(map[string]uint64)}
}

// Stats snapshots the injector's counters.
func (t *Transport) Stats() Stats {
	return Stats{
		Requests:      t.requests.Load(),
		Dropped:       t.dropped.Load(),
		Resets:        t.resets.Load(),
		Statuses:      t.statuses.Load(),
		ResponseDrops: t.responseDrops.Load(),
		Delayed:       t.delayed.Load(),
		Partitioned:   t.partitioned.Load(),
		Hung:          t.hung.Load(),
		Passed:        t.passed.Load(),
	}
}

// splitmix64 is the schedule's mixing function: a full-period permutation
// with excellent avalanche, two multiplies and three xor-shifts.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw derives the request's two deterministic uniforms (fault selector,
// delay fraction) from (seed, host, ordinal).
func (t *Transport) draw(host string, ordinal uint64) (float64, float64) {
	h := fnv.New64a()
	_, _ = io.WriteString(h, host)
	x := splitmix64(uint64(t.cfg.Seed) ^ splitmix64(h.Sum64()^splitmix64(ordinal)))
	u1 := float64(x>>11) / (1 << 53)
	u2 := float64(splitmix64(x)>>11) / (1 << 53)
	return u1, u2
}

// eligible reports whether the request's path is subject to faults.
func (t *Transport) eligible(req *http.Request) bool {
	if len(t.cfg.Paths) == 0 {
		return true
	}
	for _, p := range t.cfg.Paths {
		if req.URL.Path == p {
			return true
		}
	}
	return false
}

// RoundTrip applies the schedule to one request.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.eligible(req) {
		return t.base.RoundTrip(req)
	}
	t.requests.Add(1)
	host := req.URL.Host
	t.mu.Lock()
	ordinal := t.ordinals[host]
	t.ordinals[host] = ordinal + 1
	t.mu.Unlock()

	for _, p := range t.cfg.Partitions {
		if p.covers(host, ordinal) {
			t.partitioned.Add(1)
			closeBody(req)
			return nil, fmt.Errorf("%w (partition, host %s ordinal %d)", ErrInjectedDrop, host, ordinal)
		}
	}
	for _, p := range t.cfg.Hang {
		if p.covers(host, ordinal) {
			t.hung.Add(1)
			closeBody(req)
			<-req.Context().Done()
			return nil, req.Context().Err()
		}
	}

	u, du := t.draw(host, ordinal)
	switch {
	case u < t.cfg.Drop:
		t.dropped.Add(1)
		closeBody(req)
		return nil, fmt.Errorf("%w (host %s ordinal %d)", ErrInjectedDrop, host, ordinal)
	case u < t.cfg.Drop+t.cfg.Reset:
		t.resets.Add(1)
		closeBody(req)
		return nil, fmt.Errorf("%w (host %s ordinal %d)", ErrInjectedReset, host, ordinal)
	case u < t.cfg.Drop+t.cfg.Reset+t.cfg.Status:
		t.statuses.Add(1)
		closeBody(req)
		return synthesize(req, t.cfg.StatusCode), nil
	case u < t.cfg.Drop+t.cfg.Reset+t.cfg.Status+t.cfg.ResponseDrop:
		resp, err := t.base.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		// Drain the response so the exchange completes server-side, then
		// lose it: the server applied the request, the client sees a failure.
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		t.responseDrops.Add(1)
		return nil, fmt.Errorf("%w (response, host %s ordinal %d)", ErrInjectedDrop, host, ordinal)
	case u < t.cfg.Drop+t.cfg.Reset+t.cfg.Status+t.cfg.ResponseDrop+t.cfg.Delay:
		t.delayed.Add(1)
		span := t.cfg.DelayMax - t.cfg.DelayMin
		time.Sleep(t.cfg.DelayMin + time.Duration(du*float64(span)))
		return t.base.RoundTrip(req)
	default:
		t.passed.Add(1)
		return t.base.RoundTrip(req)
	}
}

// CloseIdleConnections forwards to the base transport, so an http.Client
// built on the injector drops its pooled connections like one built on the
// bare transport (the router does that when a node departs).
func (t *Transport) CloseIdleConnections() {
	if base, ok := t.base.(interface{ CloseIdleConnections() }); ok {
		base.CloseIdleConnections()
	}
}

// closeBody honors the RoundTripper contract for requests that never reach
// the base transport: the body must be closed even on failure.
func closeBody(req *http.Request) {
	if req.Body != nil {
		req.Body.Close()
	}
}

// synthesize builds a fault response with the injector's status code.
func synthesize(req *http.Request, code int) *http.Response {
	body := fmt.Sprintf("fault: injected %d", code)
	return &http.Response{
		Status:        fmt.Sprintf("%d %s", code, http.StatusText(code)),
		StatusCode:    code,
		Proto:         req.Proto,
		ProtoMajor:    req.ProtoMajor,
		ProtoMinor:    req.ProtoMinor,
		Header:        make(http.Header),
		Body:          io.NopCloser(strings.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}
