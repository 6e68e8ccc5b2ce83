package cluster

import (
	"cmp"
	"context"
	"net/http"
	"sync"
	"time"
)

// ProberConfig configures the failure detector.
type ProberConfig struct {
	// OnEvict, when set, observes each eviction and its outcome.
	OnEvict func(name string, err error)
	// tuning is zero outside this package's tests.
	tuning proberTuning
}

// proberTuning holds the failure detector's parameters; a zero field selects
// defaultProbeInterval, the interval or defaultProbeFailures.
type proberTuning struct {
	// interval separates probe rounds; timeout bounds one probe request (zero
	// selects the interval).
	interval time.Duration
	timeout  time.Duration
	// failures is the consecutive-failure threshold at which a node is
	// declared dead and evicted. Keying on consecutive failures keeps one
	// dropped packet from amputating a node.
	failures int
}

// defaultProbeInterval and defaultProbeFailures trade detection latency
// against tolerance for transient stalls: three missed 250ms probes declare a
// node dead in under a second.
const (
	// defaultProbeInterval is the time between two probes of a node.
	defaultProbeInterval = 250 * time.Millisecond
	// defaultProbeFailures is how many probes in a row a node may miss.
	defaultProbeFailures = 3
)

// Prober is the cluster's failure detector: it probes every live node's
// /healthz (liveness — a draining node is alive and must not be evicted) at
// a fixed interval and hands nodes that miss the consecutive-failure
// threshold to Local.EvictNode, which fails their users over to their new
// owners from their last snapshot.
type Prober struct {
	c   *Local
	cfg ProberConfig

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
	t := &cfg.tuning
	t.interval = cmp.Or(t.interval, defaultProbeInterval)
	t.timeout = cmp.Or(t.timeout, t.interval)
	t.failures = cmp.Or(t.failures, defaultProbeFailures)
	p := &Prober{
		c:     c,
		cfg:   cfg,
		fails: make(map[string]int),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go p.loop()
	return p
}

// Stop halts the probe loop and waits for it to exit.
func (p *Prober) Stop() {
	p.stopOnce.Do(func() { close(p.stop) })
	<-p.done
}

func (p *Prober) loop() {
	defer close(p.done)
	tick := time.NewTicker(p.cfg.tuning.interval)
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
			if p.fails[name] >= p.cfg.tuning.failures {
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
	ctx, cancel := context.WithTimeout(context.Background(), p.cfg.tuning.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
	if err != nil {
		return false
	}
	// Probes ride the router's pooled connections: a departure closes those
	// so the leaving server's GOAWAY has nobody to wait a second for
	// (membership.go, step 6), and a second set of connections held open
	// here would bring that second back.
	resp, err := p.c.Router.tuning.client.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}
