package cluster

import (
	"context"
	"net/http"
	"sync"
	"time"
)

// ProberConfig configures the failure detector.
type ProberConfig struct {
	// Interval between probe rounds (0 selects DefaultProbeInterval).
	Interval time.Duration
	// Timeout bounds one probe request (0 selects the interval).
	Timeout time.Duration
	// Failures is the consecutive-failure threshold at which a node is
	// declared dead and evicted (0 selects DefaultProbeFailures). Keying on
	// consecutive failures keeps one dropped packet from amputating a node.
	Failures int
	// HTTPClient overrides the probe client, by default the router's (its
	// Timeout is ignored; the prober applies its own per-probe deadline).
	HTTPClient *http.Client
	// OnEvict, when set, observes each eviction and its outcome.
	OnEvict func(name string, err error)
}

const (
	// DefaultProbeInterval and DefaultProbeFailures trade detection latency
	// against tolerance for transient stalls: three missed 250ms probes
	// declare a node dead in under a second.
	DefaultProbeInterval = 250 * time.Millisecond
	DefaultProbeFailures = 3
)

// ProberStats is a snapshot of the failure detector's state.
type ProberStats struct {
	// Probes counts probe requests sent; Failures counts the ones that
	// failed (error, timeout, or non-200).
	Probes   int64
	Failures int64
	// Failing maps node name to its current consecutive-failure count
	// (nodes at zero are omitted).
	Failing map[string]int
	// Evicted lists the nodes this prober declared dead, in order.
	Evicted []string
}

// Prober is the cluster's failure detector: it probes every live node's
// /healthz (liveness — a draining node is alive and must not be evicted) at
// a fixed interval and hands nodes that miss the consecutive-failure
// threshold to Local.EvictNode, which fails their users over to their new
// owners from their last snapshot.
type Prober struct {
	c      *Local
	cfg    ProberConfig
	client *http.Client

	mu      sync.Mutex
	fails   map[string]int
	probes  int64
	failed  int64
	evicted []string

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// StartProber launches a failure detector over the cluster. Stop it before
// stopping the cluster.
func (c *Local) StartProber(cfg ProberConfig) *Prober {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultProbeInterval
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = cfg.Interval
	}
	if cfg.Failures <= 0 {
		cfg.Failures = DefaultProbeFailures
	}
	client := cfg.HTTPClient
	if client == nil {
		// Probes ride the router's pooled connections: a departure closes
		// those so the leaving server's GOAWAY has nobody to wait a second
		// for (membership.go, step 6), and a second set of connections held
		// open here would bring that second back.
		client = c.Router.client
	}
	p := &Prober{
		c:      c,
		cfg:    cfg,
		client: client,
		fails:  make(map[string]int),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	go p.loop()
	return p
}

// Stop halts the probe loop and waits for it to exit.
func (p *Prober) Stop() {
	p.stopOnce.Do(func() { close(p.stop) })
	<-p.done
}

// Stats snapshots the prober's counters.
func (p *Prober) Stats() ProberStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	failing := make(map[string]int, len(p.fails))
	for name, n := range p.fails {
		if n > 0 {
			failing[name] = n
		}
	}
	return ProberStats{
		Probes:   p.probes,
		Failures: p.failed,
		Failing:  failing,
		Evicted:  append([]string(nil), p.evicted...),
	}
}

func (p *Prober) loop() {
	defer close(p.done)
	tick := time.NewTicker(p.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			p.round()
		case <-p.stop:
			return
		}
	}
}

// round probes every live node once and evicts the ones that crossed the
// threshold.
func (p *Prober) round() {
	p.c.mu.Lock()
	targets := make(map[string]string, len(p.c.Nodes))
	for i, n := range p.c.Nodes {
		targets[n.Name()] = p.c.Servers[i].URL()
	}
	p.c.mu.Unlock()

	var dead []string
	for name, url := range targets {
		ok := p.probe(url)
		p.mu.Lock()
		p.probes++
		if ok {
			delete(p.fails, name)
		} else {
			p.failed++
			p.fails[name]++
			if p.fails[name] >= p.cfg.Failures {
				dead = append(dead, name)
				delete(p.fails, name)
			}
		}
		p.mu.Unlock()
	}
	for _, name := range dead {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := p.c.EvictNode(ctx, name)
		cancel()
		p.mu.Lock()
		if err == nil {
			p.evicted = append(p.evicted, name)
		}
		p.mu.Unlock()
		if p.cfg.OnEvict != nil {
			p.cfg.OnEvict(name, err)
		}
	}
}

// probe reports whether one liveness check succeeded.
func (p *Prober) probe(url string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), p.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}
