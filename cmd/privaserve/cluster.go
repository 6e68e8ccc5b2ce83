package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"privascope"
	"privascope/internal/cluster"
	"privascope/internal/runtime"
)

// runClusterMode is privaserve with -cluster N: instead of one in-process
// monitor, it spawns N ingest nodes (each with its own monitor and HTTP
// server), routes all traffic through the rendezvous-hash Router, and merges
// the fleet's alerts. The datastores serve exactly as in single-monitor mode;
// only their sink differs, Router.Send instead of Observe. After serving it
// prints, in sorted order, the alerts the replay has not printed.
func runClusterMode(ctx context.Context, nodes int, generated *privascope.PrivacyModel,
	model *privascope.Model, profile privascope.UserProfile,
	eventsPath string, duration time.Duration, out io.Writer) error {

	c, err := cluster.StartLocal(generated, nodes, cluster.NodeConfig{}, cluster.RouterConfig{})
	if err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = c.Stop(ctx)
	}()
	fmt.Fprintf(out, "cluster: %d ingest nodes\n", nodes)
	for i, srv := range c.Servers {
		fmt.Fprintf(out, "  %-8s %s\n", c.Nodes[i].Name(), srv.URL())
	}
	prober, out := startProber(c, out)
	defer prober.Stop()
	if err := c.Router.Register(ctx, []privascope.UserProfile{profile}); err != nil {
		return err
	}
	fmt.Fprintf(out, "monitoring user %q on node %q\n", profile.ID, c.Router.Ring().Owner(profile.ID))

	var replayed []string
	if eventsPath != "" {
		if replayed, err = replayEventsCluster(ctx, eventsPath, c, out); err != nil {
			return err
		}
	}

	// Unlike single-monitor mode, the whole stream is routed: the ring
	// partitions every user, registered or not (unregistered users are
	// counted at their node, not observed).
	reason, err := serve(ctx, model, duration, out, func(ev privascope.Event) {
		if err := c.Router.Send(ctx, ev); err != nil {
			fmt.Fprintf(out, "event %d not routed: %v\n", ev.Seq, err)
		}
	})
	if err != nil {
		return err
	}
	quiesce, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Quiesce(quiesce); err != nil {
		return err
	}
	alerts := printAlerts(c, replayed, out)
	fmt.Fprintf(out, "privaserve: %s; %d alerts recorded\n", reason, len(alerts))
	printMembershipStats(c, out)
	return nil
}

// startProber starts the fleet's failure detection: a node that misses
// consecutive liveness probes is evicted, its users fail over to their new
// owners from their last snapshot, and undelivered frames are re-routed. The
// prober reports each eviction on out from its own goroutine, beside whatever
// the command is printing, so it returns the writer the command must print
// through from then on: both sides' writes take one lock.
func startProber(c *cluster.Local, out io.Writer) (*cluster.Prober, io.Writer) {
	out = &lockedWriter{w: out}
	return c.StartProber(cluster.ProberConfig{OnEvict: func(name string, err error) {
		if err != nil {
			fmt.Fprintf(out, "cluster: evicting dead node %q failed: %v\n", name, err)
			return
		}
		fmt.Fprintf(out, "cluster: node %q evicted after failed liveness probes; users failed over (ring epoch %d)\n",
			name, c.Router.Epoch())
	}}), out
}

// lockedWriter serialises Write calls on w.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// replayEventsCluster streams a recorded JSON event trace through the
// Router, waits for the fleet to quiesce, and prints the merged alerts in a
// canonical (sorted) order — the cluster-mode analogue of replayEvents — and
// returns the lines it printed. No events are skipped: the ring owns every
// user ID.
func replayEventsCluster(ctx context.Context, path string, c *cluster.Local, out io.Writer) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading events: %w", err)
	}
	var events []privascope.Event
	if err := json.Unmarshal(data, &events); err != nil {
		return nil, fmt.Errorf("parsing events: %w", err)
	}
	if err := c.Router.SendBatch(ctx, events); err != nil {
		return nil, fmt.Errorf("routing events: %w", err)
	}
	if err := c.Quiesce(ctx); err != nil {
		return nil, fmt.Errorf("quiescing cluster: %w", err)
	}
	var stats runtime.IngestStats
	for _, ns := range c.NodeStats() {
		stats.Merge(ns.Ingest)
	}
	alerts := printAlerts(c, nil, out)
	fmt.Fprintf(out, "cluster replay complete: %d events (%d unregistered), %d alerts\n",
		stats.Events, stats.Unregistered, len(alerts))
	printMembershipStats(c, out)
	return alerts, nil
}

// printAlerts prints the ALERT lines of the fleet's alerts in sorted order,
// leaving out one line for each line of printed (sorted, as an earlier call
// returned it), and returns all the lines.
func printAlerts(c *cluster.Local, printed []string, out io.Writer) []string {
	alerts := c.Alerts()
	lines := make([]string, len(alerts))
	for i, alert := range alerts {
		lines[i] = fmt.Sprintf("ALERT [%s]: %s", alert.Kind, alert.Message)
	}
	sort.Strings(lines)
	for _, line := range lines {
		if len(printed) > 0 && printed[0] == line {
			printed = printed[1:]
			continue
		}
		fmt.Fprintln(out, line)
	}
	return lines
}

// printMembershipStats summarizes the fault-tolerance counters after a run:
// the ring epoch (how many membership changes happened), retry/dedup volume,
// and — when the fleet changed shape — how many user snapshots moved between
// nodes, split into planned rebalances and failovers from a dead node's last
// snapshot, with what the changes cost: how long sends were parked in total,
// and what the last change moved and where its time went.
func printMembershipStats(c *cluster.Local, out io.Writer) {
	rs := c.Router.Stats()
	var deduped, handoffIn, handoffOut, failoverIn int64
	for _, ns := range c.NodeStats() {
		deduped += ns.DedupedFrames
		handoffIn += ns.HandoffInUsers
		handoffOut += ns.HandoffOutUsers
		failoverIn += ns.FailoverInUsers
	}
	fmt.Fprintf(out, "cluster: ring epoch %d; %d frames sent, %d retries, %d deduped, %d dropped\n",
		rs.Epoch, rs.FramesSent, rs.Retries, deduped, rs.Dropped)
	if handoffIn+handoffOut+failoverIn+rs.ReroutedEvents+rs.Changes == 0 {
		return
	}
	fmt.Fprintf(out, "cluster: handoff %d users out / %d in (%d via failover); %d events re-routed",
		handoffOut, handoffIn, failoverIn, rs.ReroutedEvents)
	if rs.Changes > 0 {
		us := func(d time.Duration) time.Duration { return d.Round(time.Microsecond) }
		last := rs.LastChange
		fmt.Fprintf(out, "; %d membership changes parked sends for %v; last: %s of %s at epoch %d moved %d users in %d chunks in %v (seal %v, handoff %v, teardown %v)",
			rs.Changes, us(rs.Frozen), last.Kind, last.Node, last.Epoch, last.UsersMoved, last.Chunks,
			us(last.Total), us(last.Seal), us(last.Handoff), us(last.Teardown))
	}
	fmt.Fprintln(out)
}
