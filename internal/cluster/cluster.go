// Package cluster is the horizontally scalable ingestion layer for the
// runtime monitor: a rendezvous-hash Ring places user IDs on nodes (one node
// degenerates to the single-process monitor), a Router client streams
// length-prefixed binary event frames to each owner node over unencrypted
// HTTP/2, and every Node applies its partition through Monitor.IngestBatch
// behind a bounded queue with 429 + Retry-After admission control. Because
// alert content is a pure function of each user's event sequence and a user's
// events all land on one node in send order, the union of the fleet's alerts
// equals the single-node monitor's alert set — the distribution-independence
// property the package's tests pin down.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"privascope/internal/core"
	"privascope/internal/runtime"
)

// NodeServer serves one Node over unencrypted HTTP/2 (h2c) with an HTTP/1
// fallback, in the internal/service server idiom.
type NodeServer struct {
	node     *Node
	listener net.Listener
	server   *http.Server
	done     chan struct{}
	err      error
}

// StartNodeServer listens on addr ("" selects a loopback ephemeral port) and
// serves the node.
func StartNodeServer(node *Node, addr string) (*NodeServer, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	listener, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listening on %s: %w", addr, err)
	}
	var protocols http.Protocols
	protocols.SetHTTP1(true)
	protocols.SetUnencryptedHTTP2(true)
	s := &NodeServer{
		node:     node,
		listener: listener,
		server: &http.Server{
			Handler:           node.Handler(),
			ReadHeaderTimeout: 5 * time.Second,
			Protocols:         &protocols,
		},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		if err := s.server.Serve(listener); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.err = err
		}
	}()
	return s, nil
}

// URL returns the server's base URL.
func (s *NodeServer) URL() string { return "http://" + s.listener.Addr().String() }

// Node returns the served node.
func (s *NodeServer) Node() *Node { return s.node }

// Stop shuts the server down gracefully — in-flight requests finish — and
// waits for the serve loop to exit.
func (s *NodeServer) Stop(ctx context.Context) error {
	err := s.server.Shutdown(ctx)
	<-s.done
	if err != nil {
		return err
	}
	return s.err
}

// Close stops the server at once: the listener and every connection are
// closed without waiting for requests in flight. It is for a node nobody
// should be talking to any more — evicted as dead, or never joined.
func (s *NodeServer) Close() error {
	err := s.server.Close()
	<-s.done
	if err != nil {
		return err
	}
	return s.err
}

// Local is an in-process cluster: n nodes named node0..node{n-1}, each with
// its own monitor and HTTP server, fronted by one Router. It is the
// deployment unit behind `privaserve -cluster N`, the integration tests and
// the ingest benchmark. Membership is live — AddNode, RemoveNode and
// EvictNode change the fleet under traffic — and a Prober (StartProber)
// turns failed liveness probes into evictions.
type Local struct {
	Nodes   []*Node
	Servers []*NodeServer
	Router  *Router

	// mu guards the membership fields (Nodes, Servers, retired, joining,
	// nextNode) against concurrent changes from a Prober.
	mu       sync.Mutex
	model    *core.PrivacyLTS
	nodeCfg  NodeConfig
	nextNode int
	// retired holds removed/evicted nodes: their monitors keep the alert
	// history those nodes raised while they owned their users.
	retired []*Node
	// joining is the server of the node an in-progress AddNode is handing off
	// to, which is not yet in Nodes.
	joining *NodeServer
}

// StartLocal builds and starts an n-node local cluster over the model.
// nodeCfg is the per-node template (Name is assigned here); routerCfg's
// Nodes is filled in from the started servers.
func StartLocal(p *core.PrivacyLTS, n int, nodeCfg NodeConfig, routerCfg RouterConfig) (*Local, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: need at least one node, got %d", n)
	}
	c := &Local{model: p, nodeCfg: nodeCfg, nextNode: n}
	urls := make(map[string]string, n)
	for i := 0; i < n; i++ {
		cfg := nodeCfg
		cfg.Name = fmt.Sprintf("node%d", i)
		node, err := NewNode(p, cfg)
		if err != nil {
			c.shutdown()
			return nil, err
		}
		c.Nodes = append(c.Nodes, node)
		srv, err := StartNodeServer(node, "")
		if err != nil {
			node.Close()
			c.shutdown()
			return nil, err
		}
		c.Servers = append(c.Servers, srv)
		urls[cfg.Name] = srv.URL()
	}
	routerCfg.Nodes = urls
	router, err := NewRouter(routerCfg)
	if err != nil {
		c.shutdown()
		return nil, err
	}
	c.Router = router
	return c, nil
}

// Alerts merges every node's alert log. Ordering across nodes is arbitrary
// (each node's own log stays in its observation order); callers needing a
// canonical order sort the result.
func (c *Local) Alerts() []runtime.Alert {
	c.mu.Lock()
	defer c.mu.Unlock()
	var all []runtime.Alert
	for _, n := range c.Nodes {
		all = append(all, n.Monitor().Alerts()...)
	}
	for _, n := range c.retired {
		all = append(all, n.Monitor().Alerts()...)
	}
	return all
}

// NodeStats snapshots every live node's counters. A caller that may run beside
// a Prober reads the fleet through here: an eviction rewrites Nodes under mu.
func (c *Local) NodeStats() []NodeStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	stats := make([]NodeStats, len(c.Nodes))
	for i, n := range c.Nodes {
		stats[i] = n.Stats()
	}
	return stats
}

// Quiesce flushes the router and waits until every node has applied every
// accepted event: after it returns, Alerts reflects everything sent.
func (c *Local) Quiesce(ctx context.Context) error {
	if err := c.Router.Flush(ctx); err != nil {
		return err
	}
	c.mu.Lock()
	nodes := append([]*Node(nil), c.Nodes...)
	c.mu.Unlock()
	for _, n := range nodes {
		if err := n.Quiesce(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Stop closes the router, the servers and the nodes. The first error wins,
// but every component is stopped regardless.
func (c *Local) Stop(ctx context.Context) error {
	var first error
	if c.Router != nil {
		if err := c.Router.Close(); err != nil && first == nil {
			first = err
		}
		c.Router = nil
	}
	if err := c.shutdownCtx(ctx); err != nil && first == nil {
		first = err
	}
	return first
}

func (c *Local) shutdown() { _ = c.shutdownCtx(context.Background()) }

func (c *Local) shutdownCtx(ctx context.Context) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var first error
	for _, s := range c.Servers {
		if err := s.Stop(ctx); err != nil && first == nil {
			first = err
		}
	}
	c.Servers = nil
	for _, n := range c.Nodes {
		n.Close()
	}
	c.Nodes = nil
	for _, n := range c.retired {
		n.Close()
	}
	c.retired = nil
	return first
}
