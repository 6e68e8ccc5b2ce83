package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"privascope/internal/runtime"
)

// This file is the live-membership layer: the Router's one ring-change
// procedure (change: join, graceful leave, eviction of a dead node) and the
// Local cluster's orchestration on top of it, which moves per-user monitor
// state between nodes through the /handoff endpoint.
//
// Every change follows the same protocol; change's body is this list:
//
//  1. Validate, under the shared membership lock: the node is (join: is not)
//     in the ring and the ring the change would install exists. An eviction
//     then cancels the dead node's sender, still under the shared lock: its
//     POST in flight is aborted, and whatever was blocked on that node's full
//     window — a Send, a Flush — parks its frame and lets go of the lock the
//     next step needs.
//  2. Freeze: take the membership lock exclusively. The Send plane is parked
//     from here to the end of step 7.
//  3. Seal: cut every sender's buffer and wait until every cut frame is
//     resolved — accepted or dropped, or, on the cancelled sender, parked.
//  4. Move: copy the moved users' snapshots from their old owners to the new
//     ones, in bounded chunks (the caller-supplied callback). Nothing is
//     removed from an old owner until every chunk to every new owner has been
//     acknowledged; a change that fails part-way deletes the copies it made,
//     so it leaves every node holding exactly the users it held before. An
//     eviction that fails here or in step 3 leaves its node in the ring, so
//     the node gets a working sender back (resumeSender).
//  5. Swap: install the new ring and increment the epoch.
//  6. Tear down (leave and eviction): close the departed sender's queue and
//     the router's pooled connections. A Go HTTP/2 server that has sent its
//     graceful-shutdown GOAWAY keeps each connection open for a second unless
//     the client closes it first, and http.Server.Shutdown waits for those
//     connections; the router's long-lived h2c connection is the one that
//     would make every departure cost that second. Every pooled connection is
//     idle here — the seal drove the in-flight count to zero and the handoff
//     requests have returned — so closing the idle ones closes them all;
//     survivors re-dial on their next frame.
//  7. Re-route (eviction only): decode the dead sender's parked frames in
//     stream order, skip the prefix its stream cursor proves already applied,
//     and route the rest to their users' new owners — in-flight events are
//     re-routed, never dropped.
//  8. Record the change in the router's stats.
//
// Stopping the departed node's server happens after the lock is released.
//
// Cancelling a request does not stop the handler already serving it, so
// before an eviction Local fences the victim (Node.fence): a fenced node
// admits no further frame, its stream cursor stands still, and the snapshots
// step 4 exports agree with the cursor step 7 reads.

// HandoffReason values for the HeaderHandoffReason label.
const (
	ReasonRebalance = "rebalance"
	ReasonFailover  = "failover"
	ReasonRegister  = "register"
)

// MembershipChange.Kind values.
const (
	ChangeJoin  = "join"
	ChangeLeave = "leave"
	ChangeEvict = "evict"
)

// noteServerStop adds the time the caller spent stopping the departed node's
// server, after the change itself returned, to the last change's record.
func (r *Router) noteServerStop(d time.Duration) {
	r.changeMu.Lock()
	defer r.changeMu.Unlock()
	r.lastChange.Teardown += d
	r.lastChange.Total += d
}

// change is the membership change: kind is ChangeJoin (url is the joiner's),
// ChangeLeave or ChangeEvict of the node name. move hands the users whose
// owner differs under newRing to their new owners; when it fails the change is
// abandoned, and it must have left every node's users as it found them.
// cursor reads an evicted node's stream cursor (nil otherwise). Combined with
// the receiving side's stream-offset deduplication the protocol in this
// file's header makes an eviction lose nothing and duplicate nothing,
// whatever the crash timing. Callers serialize changes (Local.mu), so what
// step 1 saw under the shared lock still holds under the exclusive one.
func (r *Router) change(ctx context.Context, kind, name, url string,
	move func(newRing *Ring) (users, chunks int, err error), cursor func(stream string) int64) error {
	r.memberMu.RLock()
	s, member := r.senders[name]
	var newRing *Ring
	var err error
	switch {
	case kind == ChangeJoin && member:
		err = fmt.Errorf("cluster: node %q already in the ring", name)
	case kind == ChangeJoin && url == "":
		err = fmt.Errorf("cluster: node %q has no URL", name)
	case kind == ChangeJoin:
		newRing, err = r.ring.Load().WithNode(name)
	case !member:
		err = fmt.Errorf("cluster: node %q not in the ring", name)
	default:
		newRing, err = r.ring.Load().WithoutNode(name)
	}
	if err == nil && kind == ChangeEvict {
		s.cancel()
	}
	r.memberMu.RUnlock()
	if err != nil {
		return err
	}

	r.memberMu.Lock()
	start := time.Now()
	swapped := false
	defer func() {
		if kind == ChangeEvict && !swapped {
			r.resumeSender(s)
		}
		r.frozenNs.Add(int64(time.Since(start)))
		r.memberMu.Unlock()
	}()
	if err := r.flushSealed(ctx); err != nil {
		return err
	}
	sealed := time.Now()
	users, chunks, err := move(newRing)
	if err != nil {
		return fmt.Errorf("cluster: %s of %q: moving its users: %w", kind, name, err)
	}
	handed := time.Now()

	if kind == ChangeJoin {
		r.startSender(name, url, nil)
	}
	r.ring.Store(newRing)
	r.epoch.Add(1)
	swapped = true
	var teardown time.Duration
	if kind != ChangeJoin {
		t0 := time.Now()
		delete(r.senders, name)
		close(s.frames)
		s.cancel()
		r.client.CloseIdleConnections()
		teardown = time.Since(t0)
	}
	if kind == ChangeEvict {
		// On failure the ring is swapped and the node gone, but parked events
		// are still owed: Changes and LastChange describe completed changes only.
		if err := r.rerouteParked(ctx, s, cursor(r.streamFor(name))); err != nil {
			return err
		}
	}

	r.changeMu.Lock()
	defer r.changeMu.Unlock()
	r.changes++
	r.lastChange = MembershipChange{
		Kind: kind, Node: name, Epoch: r.epoch.Load(),
		UsersMoved: users, Chunks: chunks,
		Seal: sealed.Sub(start), Handoff: handed.Sub(sealed), Teardown: teardown,
		Total: time.Since(start),
	}
	return nil
}

// resumeSender undoes step 1's cancel for an eviction abandoned before its ring
// swap: the node is still in the ring, and a cancelled sender would park every
// later frame for it with nothing counted pending or dropped. The node gets a
// fresh sender that continues the old one's stream — same stream key, next
// index and buffer — and whose first sequence is what the old one parked, in
// stream order; the node's stream cursor makes redelivery of a frame it had
// applied a no-op. The caller holds memberMu exclusively.
func (r *Router) resumeSender(old *nodeSender) {
	// A cancelled sender resolves what it holds without the network, so this
	// wait needs no deadline, and must not share one with a change that failed
	// because its own ran out.
	close(old.frames)
	_ = waitZero(context.Background(), &old.pending)
	old.mu.Lock()
	defer old.mu.Unlock()
	sort.Slice(old.parked, func(i, j int) bool { return old.parked[i].idx < old.parked[j].idx })
	s := r.startSender(old.name, old.url, old.parked)
	s.buf, s.nextIdx = old.buf, old.nextIdx
	old.parked, old.buf = nil, nil
}

// rerouteParked routes what an evicted node never applied through the new
// ring. Frames are parked from two places — the send loop and a cut that was
// waiting for room — so they are put back in stream order first: per-user
// event order is the ring's guarantee. Frames below next, the node's stream
// cursor, were applied before it died (their responses may have been lost);
// replaying them would double-count, so they are skipped.
func (r *Router) rerouteParked(ctx context.Context, s *nodeSender, next int64) error {
	s.mu.Lock()
	parked := s.parked
	s.parked = nil
	buffered := s.buf
	s.buf = nil
	s.mu.Unlock()
	sort.Slice(parked, func(i, j int) bool { return parked[i].idx < parked[j].idx })
	for _, f := range parked {
		if f.idx < next {
			r.failoverSkip.Add(1)
			continue
		}
		batch, err := NewFrameReader(bytes.NewReader(f.data)).Read()
		if err != nil {
			return fmt.Errorf("cluster: re-decoding parked frame %d: %w", f.idx, err)
		}
		for _, ev := range batch {
			if err := r.route(ctx, ev); err != nil {
				return err
			}
		}
		r.rerouted.Add(int64(len(batch)))
	}
	for _, ev := range buffered {
		if err := r.route(ctx, ev); err != nil {
			return err
		}
	}
	r.rerouted.Add(int64(len(buffered)))
	return nil
}

// AddNode starts a fresh node + server over the cluster's model and joins it
// to the ring, live: users whose ownership moves are handed off before the
// ring swap, and no in-flight event is dropped. It returns the new node.
func (c *Local) AddNode(ctx context.Context) (*Node, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cfg := c.nodeCfg
	cfg.Name = fmt.Sprintf("node%d", c.nextNode)
	node, err := NewNode(c.model, cfg)
	if err != nil {
		return nil, err
	}
	srv, err := StartNodeServer(node, "")
	if err != nil {
		node.Close()
		return nil, err
	}
	c.joining = srv
	err = c.Router.change(ctx, ChangeJoin, cfg.Name, srv.URL(), func(newRing *Ring) (int, int, error) {
		return c.rebalanceLocked(ctx, newRing, ReasonRebalance, nil)
	}, nil)
	c.joining = nil
	if err != nil {
		// Nobody but this change ever spoke to the node: no reader to wait for.
		_ = srv.Close()
		node.Close()
		return nil, err
	}
	c.nextNode++
	c.Nodes = append(c.Nodes, node)
	c.Servers = append(c.Servers, srv)
	return node, nil
}

// RemoveNode gracefully retires the named node: the router finishes its
// deliveries, the node's users are handed off to their new owners, and
// its server is shut down — gracefully, for readers outside the fleet, and
// promptly, because the router has closed its own connection to it. The
// node's monitor is retained so its alert history still counts in Alerts.
func (c *Local) RemoveNode(ctx context.Context, name string) error {
	return c.depart(ctx, ChangeLeave, name)
}

// EvictNode fails the named node over: the node is fenced, the router parks
// its in-flight frames, the node's users move to their new owners from
// their last snapshot (the node is in-process, so its monitor is still
// readable even when its server is unreachable), and the parked frames the
// node never applied are re-routed. Its alert history is retained.
func (c *Local) EvictNode(ctx context.Context, name string) error {
	return c.depart(ctx, ChangeEvict, name)
}

// depart is the departure both RemoveNode and EvictNode are: mark the node
// (a leaver drains, a victim is fenced), run the change with the node's whole
// population moving out, then stop its server and retire it.
func (c *Local) depart(ctx context.Context, kind, name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := c.indexOfLocked(name)
	if i < 0 {
		return fmt.Errorf("cluster: node %q not in the cluster", name)
	}
	node, srv := c.Nodes[i], c.Servers[i]
	mark, reason := node.draining.Store, ReasonRebalance
	if kind == ChangeEvict {
		mark, reason = node.fence, ReasonFailover
	}
	mark(true)
	err := c.Router.change(ctx, kind, name, "", func(newRing *Ring) (int, int, error) {
		return c.rebalanceLocked(ctx, newRing, reason, node)
	}, node.StreamCursor)
	if err != nil {
		mark(false)
		return err
	}
	c.detachLocked(i)
	t0 := time.Now()
	if kind == ChangeEvict {
		// The node is dead by declaration, and its server usually is already:
		// close whatever is left without waiting for anyone.
		_ = srv.Close()
	} else {
		err = srv.Stop(ctx)
	}
	c.Router.noteServerStop(time.Since(t0))
	if err != nil {
		return err
	}
	node.Close()
	return nil
}

// indexOfLocked finds a live node by name.
func (c *Local) indexOfLocked(name string) int {
	for i, n := range c.Nodes {
		if n.Name() == name {
			return i
		}
	}
	return -1
}

// detachLocked moves Nodes[i] to the retired list (its monitor keeps the
// alert history the fleet already raised) and forgets its server.
func (c *Local) detachLocked(i int) {
	c.retired = append(c.retired, c.Nodes[i])
	c.Nodes = append(c.Nodes[:i], c.Nodes[i+1:]...)
	c.Servers = append(c.Servers[:i], c.Servers[i+1:]...)
}

// handoffStream is the users one source hands to one destination in a
// membership change (a registration has neither node: its snapshots are
// fresh), and how far the transfer got.
type handoffStream struct {
	src, dst *Node
	url      string
	snaps    []runtime.UserSnapshot
	// sent counts the snapshots in chunks posted so far, the one in flight
	// included: the destination may hold any of snaps[:sent]. chunks counts
	// the acknowledged frames.
	sent   int
	chunks int
}

// userIDs lists the users of a snapshot slice.
func userIDs(snaps []runtime.UserSnapshot) []string {
	ids := make([]string, len(snaps))
	for i := range snaps {
		ids[i] = snaps[i].Profile.ID
	}
	return ids
}

// fanOut runs f(ctx, 0) … f(ctx, n-1) concurrently and waits for all of them.
// The first failure cancels the context the others run under and is the
// error returned. n is bounded by the fleet size.
func fanOut(ctx context.Context, n int, f func(ctx context.Context, i int) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg    sync.WaitGroup
		once  sync.Once
		first error
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := f(ctx, i); err != nil {
				once.Do(func() {
					first = err
					cancel()
				})
			}
		}(i)
	}
	wg.Wait()
	return first
}

// rebalanceLocked copies every user whose owner under newRing differs from
// the node currently holding them to that owner, then removes them from
// their old one. With only == nil all live nodes are scanned (a join pulls
// users from everywhere); otherwise just that node (a leave or failover
// pushes its whole population out). Sources are quiesced first so each
// exported snapshot reflects every event the node accepted, and export and
// transfer run concurrently across sources and destinations.
//
// Users leave a source only after every chunk to every destination has been
// acknowledged. On any failure the copies already made are deleted from the
// destinations instead (they are in-process), each once it is done with the
// chunks that had reached it, so an aborted change leaves every source
// complete and no node holding a user it does not own.
func (c *Local) rebalanceLocked(ctx context.Context, newRing *Ring, reason string, only *Node) (users, chunks int, err error) {
	sources := c.Nodes
	if only != nil {
		sources = []*Node{only}
	}
	perSource := make([][]*handoffStream, len(sources))
	err = fanOut(ctx, len(sources), func(ctx context.Context, i int) error {
		var err error
		perSource[i], err = c.exportMovedLocked(ctx, sources[i], newRing)
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	var streams []*handoffStream
	for _, s := range perSource {
		streams = append(streams, s...)
	}
	err = fanOut(ctx, len(streams), func(ctx context.Context, i int) error {
		return c.Router.streamHandoff(ctx, streams[i], reason)
	})
	if err != nil {
		for _, st := range streams {
			// The failure cancelled the other streams' requests, but a chunk
			// whose body had already arrived is still being imported: roll back
			// only once the destination is serving no /handoff request (each
			// ends on its own, its body complete or reset by the sender that
			// gave up on it) — or the change's own context is done.
			_ = waitZero(ctx, &st.dst.receiving)
			st.dst.Monitor().RemoveUsers(userIDs(st.snaps[:st.sent]))
		}
		return 0, 0, err
	}
	for _, st := range streams {
		st.src.Monitor().RemoveUsers(userIDs(st.snaps))
		st.src.handoffOut.Add(int64(len(st.snaps)))
		users += len(st.snaps)
		chunks += st.chunks
	}
	return users, chunks, nil
}

// exportMovedLocked quiesces src and snapshots the users newRing assigns to
// another node, one stream per new owner.
func (c *Local) exportMovedLocked(ctx context.Context, src *Node, newRing *Ring) ([]*handoffStream, error) {
	if err := src.Quiesce(ctx); err != nil {
		return nil, err
	}
	moved := src.Monitor().ExportUsers(func(userID string) (string, bool) {
		owner := newRing.Owner(userID)
		return owner, owner != src.Name()
	})
	streams := make([]*handoffStream, 0, len(moved))
	for owner, snaps := range moved {
		srv, err := c.serverOfLocked(owner)
		if err != nil {
			return nil, err
		}
		streams = append(streams, &handoffStream{src: src, dst: srv.Node(), url: srv.URL(), snaps: snaps})
	}
	return streams, nil
}

// serverOfLocked resolves a live or joining node's server. A joining node is
// not yet in c.Nodes when its handoff runs, so the router's sender table
// cannot be the source of truth here; Servers and joining are.
func (c *Local) serverOfLocked(name string) (*NodeServer, error) {
	for i, n := range c.Nodes {
		if n.Name() == name {
			return c.Servers[i], nil
		}
	}
	if c.joining != nil && c.joining.Node().Name() == name {
		return c.joining, nil
	}
	return nil, fmt.Errorf("cluster: no server for node %q", name)
}

// streamHandoff sends one stream's snapshots as a sequence of bounded PSHO
// frames, encoding the next chunk while the previous one is on the wire and
// being imported.
func (r *Router) streamHandoff(ctx context.Context, st *handoffStream, reason string) error {
	type chunk struct {
		frame []byte
		users int
		err   error
	}
	ctx, cancel := context.WithCancel(ctx)
	chunks := make(chan chunk)
	go func() {
		defer close(chunks)
		for rest := st.snaps; len(rest) > 0; {
			frame, n, err := encodeHandoffChunk(rest, handoffChunkBytes)
			select {
			case chunks <- chunk{frame, n, err}:
			case <-ctx.Done():
				return
			}
			if err != nil {
				return
			}
			rest = rest[n:]
		}
	}()
	// Whatever ends the loop below, stop the encoder and wait for it.
	defer func() {
		cancel()
		for range chunks {
		}
	}()
	for ch := range chunks {
		if ch.err != nil {
			return ch.err
		}
		st.sent += ch.users
		if err := r.postHandoff(ctx, st.url, ch.frame, reason); err != nil {
			return err
		}
		st.chunks++
	}
	if st.sent < len(st.snaps) {
		return ctx.Err() // cancelled between chunks
	}
	return nil
}

// postHandoff posts one PSHO frame, retrying a few times: imports are
// idempotent, so redelivery after a lost response converges.
func (r *Router) postHandoff(ctx context.Context, url string, frame []byte, reason string) error {
	var lastErr error
	delay := 10 * time.Millisecond
	for attempt := 0; attempt < 5; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return ctx.Err()
			}
			delay *= 2
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/handoff", bytes.NewReader(frame))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		req.Header.Set(HeaderHandoffReason, reason)
		resp, err := r.client.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return nil
		}
		lastErr = fmt.Errorf("handoff returned %s: %s", resp.Status, bytes.TrimSpace(body))
		if resp.StatusCode == http.StatusUnprocessableEntity {
			return lastErr // validation failure will not improve on retry
		}
	}
	return lastErr
}
