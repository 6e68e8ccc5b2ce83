package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"privascope/internal/runtime"
)

// This file is the live-membership layer: the Router's one ring-change
// procedure (change: join, graceful leave, eviction of a dead node) and the
// Local cluster's orchestration on top of it, which moves per-user monitor
// state between nodes through the /handoff endpoint.
//
// A change is this list of events for the owner loop, and the two effects it
// carries out itself between them:
//
//  1. begin: the node is (join: is not) in the ring and the ring the change
//     would install exists. An eviction cancels the node's sender: its POST in
//     flight is aborted and its frames are owed from now on, so a Send waiting
//     for room in its window is taken at once.
//  2. seal (a flush): freeze — no Send, Flush or Register is taken until the
//     change ends — and wait until every buffer is cut and every cut frame is
//     accepted or dropped or, on the cancelled sender, owed, and no
//     registration is handing off.
//  3. move (effect): copy the moved users' snapshots from their old owners to
//     the new ones, in bounded chunks (the caller-supplied callback). Nothing
//     is removed from an old owner until every chunk to every new owner has
//     been acknowledged; a move that fails part-way deletes the copies it made.
//  4. swap: install the new ring, increment the epoch, and give a joiner a
//     sender or retire the departed node's.
//  5. tear down (effect, leave and eviction): close the router's pooled
//     connections. A Go HTTP/2 server that has sent its graceful-shutdown
//     GOAWAY keeps each connection open for a second unless the client closes
//     it first, and http.Server.Shutdown waits for those connections. All are
//     idle here — the seal left nothing in flight and the handoffs have
//     returned — so closing the idle ones closes them all; survivors re-dial.
//  6. re-route (eviction only): route the owed frames to their users' new
//     owners, skipping those below the dead node's stream cursor (applied
//     already). They are in stream order: frames leave a sender's queue only
//     from the front, and an aborted sequence stays at its head.
//  7. record: count the change and thaw.
//
// A change that fails sends abort instead of its next event: abort thaws, and
// an eviction that fails before its swap clears the cancelled mark, so the
// same stream resumes from its first owed frame (the node's stream cursor
// makes redelivering an applied frame a no-op). One more event adds the time
// to stop the departed node's server, which happens after the change.
//
// Cancelling a request does not stop the handler already serving it, so
// before an eviction Local fences the victim (Node.fence): a fenced node
// admits no further frame, its stream cursor stands still, and the snapshots
// step 3 exports agree with the cursor step 6 reads.

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

// changeCall is one change; change sends it once per event, with phase set.
type changeCall struct {
	reply
	phase           changePhase
	kind, node, url string
	ring            *Ring            // begin's answer: the ring the change installs
	next            int64            // re-route: the departed node's stream cursor
	elapsed         time.Duration    // record, abort: Send's time parked; serverStopped: the stop's
	record          MembershipChange // record
	departed        *sender          // set by the swap
}

type changePhase uint8

const (
	phaseBegin changePhase = iota
	phaseSwap
	phaseReroute
	phaseRecord
	phaseAbort
	phaseServerStopped
)

// change is the membership change: kind is ChangeJoin (url is the joiner's),
// ChangeLeave or ChangeEvict of the node name. move hands the users whose
// owner differs under newRing to their new owners; when it fails the change is
// abandoned, and it must have left every node's users as it found them.
// cursor reads an evicted node's stream cursor (nil otherwise). Combined with
// the receiving side's stream-offset deduplication the protocol in this
// file's header makes an eviction lose nothing and duplicate nothing,
// whatever the crash timing. The owner loop refuses a second concurrent change.
func (r *Router) change(ctx context.Context, kind, name, url string,
	move func(newRing *Ring) (users, chunks int, err error), cursor func(stream string) int64) error {
	c := &changeCall{kind: kind, node: name, url: url}
	if err := r.phase(c, phaseBegin); err != nil {
		return err
	}
	start := time.Now()
	fail := func(err error) error {
		c.elapsed = time.Since(start)
		_ = r.phase(c, phaseAbort)
		return err
	}
	if err := r.ask(ctx, &flushCall{kind: flushSeal}); err != nil {
		return fail(err)
	}
	sealed := time.Now()
	users, chunks, err := move(c.ring)
	if err != nil {
		return fail(fmt.Errorf("cluster: %s of %q: moving its users: %w", kind, name, err))
	}
	handed := time.Now()
	_ = r.phase(c, phaseSwap)
	var teardown time.Duration
	if kind != ChangeJoin {
		t0 := time.Now()
		r.tuning.client.CloseIdleConnections()
		teardown = time.Since(t0)
	}
	if kind == ChangeEvict {
		c.next = cursor(r.streamFor(name))
		if err := r.phase(c, phaseReroute); err != nil {
			return fail(err)
		}
	}
	c.elapsed = time.Since(start)
	c.record = MembershipChange{Kind: kind, Node: name, UsersMoved: users, Chunks: chunks,
		Seal: sealed.Sub(start), Handoff: handed.Sub(sealed), Teardown: teardown, Total: c.elapsed}
	return r.phase(c, phaseRecord)
}

// phase sends the change's next event. Only the seal waits on the network, so
// only the seal is given the change's context.
func (r *Router) phase(c *changeCall, p changePhase) error {
	c.phase = p
	return r.ask(context.Background(), c)
}

// stepChange is step for a change's events.
func (st *routerState) stepChange(c *changeCall) {
	var err error
	switch s := st.sender(c.node); c.phase {
	case phaseBegin:
		switch {
		case st.change != nil:
			err = fmt.Errorf("cluster: node %q: another membership change is in progress", c.node)
		case c.kind == ChangeJoin && s != nil:
			err = fmt.Errorf("cluster: node %q already in the ring", c.node)
		case c.kind == ChangeJoin && c.url == "":
			err = fmt.Errorf("cluster: node %q has no URL", c.node)
		case c.kind == ChangeJoin:
			c.ring, err = st.ring.WithNode(c.node)
		case s == nil:
			err = fmt.Errorf("cluster: node %q not in the ring", c.node)
		default:
			c.ring, err = st.ring.WithoutNode(c.node)
		}
		if err == nil {
			st.change = c
		}
		if err == nil && c.kind == ChangeEvict {
			s.cancelled = true
			if s.inFlight > 0 {
				st.out = append(st.out, effect{kind: effAbort, node: s.name})
			}
		}
	case phaseSwap:
		senders := make([]*sender, len(c.ring.nodes))
		for i, name := range c.ring.nodes {
			if senders[i] = st.sender(name); senders[i] == nil {
				senders[i] = &sender{name: name, url: c.url}
			}
		}
		st.ring, st.senders, c.departed = c.ring, senders, s
		st.stats.Epoch++
	case phaseReroute:
		for _, f := range c.departed.queue {
			if f.idx < c.next {
				st.stats.FailoverSkippedFrames++
				continue
			}
			events, derr := DecodeFrame(f.data)
			if derr != nil {
				err = fmt.Errorf("cluster: re-decoding owed frame %d: %w", f.idx, derr)
				break
			}
			for i := range events {
				st.take(&events[i], true)
			}
			st.stats.ReroutedEvents += int64(len(events))
		}
		c.departed.queue = nil
	case phaseRecord, phaseAbort:
		if c.phase == phaseRecord {
			c.record.Epoch = st.stats.Epoch
			st.stats.Changes++
			st.stats.LastChange = c.record
		} else if s != nil && c.kind == ChangeEvict {
			s.cancelled = false // failed before its swap: the node stays
		}
		st.stats.Frozen += c.elapsed
		st.frozen, st.change = false, nil
	case phaseServerStopped:
		st.stats.LastChange.Teardown += c.elapsed
		st.stats.LastChange.Total += c.elapsed
	}
	st.answer(&c.reply, err)
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

// EvictNode fails the named node over: the node is fenced, the router takes
// back the frames it owed the node, the node's users move to their new owners
// from their last snapshot (the node is in-process, so its monitor is still
// readable even when its server is unreachable), and the owed frames the node
// never applied are re-routed. Its alert history is retained.
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
	_ = c.Router.phase(&changeCall{elapsed: time.Since(t0)}, phaseServerStopped)
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
		perSource[i], err = c.exportMovedLocked(sources[i], newRing)
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

// exportMovedLocked snapshots the users newRing assigns to another node, one
// stream per new owner. It waits for nothing: the seal returned, so every
// frame src acknowledged is applied, and an evicted src is fenced.
func (c *Local) exportMovedLocked(src *Node, newRing *Ring) ([]*handoffStream, error) {
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
		resp, err := r.tuning.client.Do(req)
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
