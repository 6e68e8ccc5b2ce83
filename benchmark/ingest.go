package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"privascope/internal/casestudy"
	"privascope/internal/cluster"
	"privascope/internal/core"
	"privascope/internal/risk"
	"privascope/internal/runtime"
	"privascope/internal/service"
)

type ingestMode int

const (
	modeSaturate ingestMode = iota
	modeSteady
	modeRebalance
)

const (
	// initialNodes is the fleet every ingest workload starts with.
	initialNodes = 2
	// sendChunk is how many events the generator hands Router.SendBatch at
	// once in the closed loop.
	sendChunk = 512
	// registerChunk bounds one Router.Register call: the node's /register
	// endpoint reads at most 8 MiB of JSON.
	registerChunk = 4096
	// tick is the open-loop schedule's step; a probe goes out every
	// probeEvery ticks per probe user.
	tick       = time.Millisecond
	probeEvery = 5
	// pollEvery is how often a probe's completion is looked for.
	pollEvery = 100 * time.Microsecond
)

// ingestWorkload is the three event-in → alert-out workloads: one generator
// goroutine drives cluster.StartLocal's fleet over the surgery LTS through
// the Router; a unit of work is one event applied.
//
//   - saturate, closed loop: an operation is a generation — every user's
//     six-event script sent round-robin by script position, then Quiesce.
//   - steady, open loop: an operation is a probe — a denied event for a
//     dedicated user, timed from when it was due until its alert is readable
//     on the owner node.
//   - rebalance, open loop: an operation is a membership cycle — AddNode,
//     RemoveNode, EvictNode, AddNode under traffic, their wall times summed.
type ingestWorkload struct {
	mode  ingestMode
	model *core.PrivacyLTS
	in    *ingestInputs
	// rate is the open loops' events per second.
	rate     int
	profiles []risk.UserProfile
	c        *cluster.Local
	fleet    *fleetView
	probes   []*probe

	registerNsPerUser float64
	ringSkew          float64
	// sent is how many events of the stream went to the Router; generations
	// is how many times the closed loop replayed it.
	sent, generations int
	// stallNs is the longest single SendBatch since it was last reset;
	// stallMs sums it over the membership changes, changeMs keeps each
	// change's wall time by kind.
	stallNs  atomic.Int64
	stallMs  float64
	changeMs map[string][]float64
}

// fleetView is the generator's own record of which node serves which name:
// Local's Nodes slice belongs to the membership code and may not be read
// while a change is running.
type fleetView struct {
	mu   sync.Mutex
	live []*cluster.Node // oldest first
	all  []*cluster.Node
}

func (f *fleetView) add(n *cluster.Node) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.live = append(f.live, n)
	f.all = append(f.all, n)
}

// oldest names the longest-serving live node.
func (f *fleetView) oldest() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.live[0].Name()
}

func (f *fleetView) retire(name string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, n := range f.live {
		if n.Name() == name {
			f.live = append(f.live[:i:i], f.live[i+1:]...)
			return
		}
	}
}

func (f *fleetView) node(name string) *cluster.Node {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, n := range f.live {
		if n.Name() == name {
			return n
		}
	}
	return nil
}

func (f *fleetView) everyNode() []*cluster.Node {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*cluster.Node(nil), f.all...)
}

// probe is one latency probe user. The generator stores probe i's due time
// before sending it; the poller reads the user's cumulative alert count on
// its owner node, which says how many probes have completed.
type probe struct {
	id   string
	due  []atomic.Int64 // nanoseconds since the run started
	sent int
	done int64
}

// latency is one completed probe.
type latency struct {
	due time.Duration
	ms  float64
}

func (w *ingestWorkload) setup(e *env) error {
	ctx := context.Background()
	var err error
	if w.model, err = core.Generate(casestudy.Surgery()); err != nil {
		return err
	}
	sz, window := e.sizes, e.window().Seconds()
	switch w.mode {
	case modeSaturate:
		w.in = newIngestInputs(e.seed, sz.saturateUsers, sz.saturateUsers, 0)
	case modeSteady:
		w.rate = sz.steadyRate
		perCohort := sz.steadyCohort * len(casestudy.MedicalServiceEvents(""))
		cohorts := (int(window*float64(w.rate)) + perCohort - 1) / perCohort
		w.in = newIngestInputs(e.seed, cohorts*sz.steadyCohort, sz.steadyCohort, 0)
	case modeRebalance:
		// Users are advanced two events in set-up, so four remain each; the
		// rate is capped where the window would run out of events. (More
		// users are not an option: a handoff frame carries at most 65,536.)
		w.in = newIngestInputs(e.seed, sz.rebalanceUsers, sz.rebalanceUsers, 2)
		w.rate = sz.rebalanceRate
		if most := int(float64(w.in.streamLen()) / (window + 0.2)); w.rate > most {
			w.rate = most / 1000 * 1000
		}
	}
	if w.c, err = cluster.StartLocal(w.model, initialNodes, cluster.NodeConfig{}, cluster.RouterConfig{}); err != nil {
		return err
	}
	w.fleet = &fleetView{}
	for _, n := range w.c.Nodes {
		w.fleet.add(n)
	}
	ring := w.c.Router.Ring()

	// One probe user per initial node, found by trying IDs until the ring
	// has assigned one to each.
	w.probes = nil
	if w.mode != modeSaturate {
		owned := make(map[string]bool)
		for j := 0; len(w.probes) < initialNodes; j++ {
			id := fmt.Sprintf("s%d-probe%03d", e.seed, j)
			if owner := ring.Owner(id); !owned[owner] {
				owned[owner] = true
				ticks := int(e.window()/tick) + 1
				w.probes = append(w.probes, &probe{id: id, due: make([]atomic.Int64, ticks/probeEvery+1)})
			}
		}
	}

	// The case study's patient profile for everyone; one sensitivities map
	// is shared so the generator's own footprint stays small.
	w.profiles = make([]risk.UserProfile, 0, len(w.in.ids)+len(w.probes))
	base := casestudy.PatientProfile()
	perNode := make(map[string]int)
	for _, id := range w.in.ids {
		p := base
		p.ID = id
		w.profiles = append(w.profiles, p)
		perNode[ring.Owner(id)]++
	}
	largest := 0
	for _, n := range perNode {
		if n > largest {
			largest = n
		}
	}
	w.ringSkew = float64(largest) * initialNodes / float64(len(w.in.ids))
	for _, pr := range w.probes {
		p := base
		p.ID = pr.id
		w.profiles = append(w.profiles, p)
	}
	t0 := time.Now()
	for i := 0; i < len(w.profiles); i += registerChunk {
		end := i + registerChunk
		if end > len(w.profiles) {
			end = len(w.profiles)
		}
		if err := w.c.Router.Register(ctx, w.profiles[i:end]); err != nil {
			return err
		}
	}
	w.registerNsPerUser = float64(time.Since(t0)) / float64(len(w.profiles))

	if w.mode == modeRebalance {
		advance := func(events []service.Event) error { return w.c.Router.SendBatch(ctx, events) }
		if err := w.sendPositions(0, w.in.firstPos, advance); err != nil {
			return err
		}
		if err := w.c.Quiesce(ctx); err != nil {
			return err
		}
	}
	w.sent, w.generations = 0, 0
	w.stallMs, w.changeMs = 0, make(map[string][]float64)
	return nil
}

// sendPositions hands every user's events at script positions [from, to),
// round-robin by position, to send in chunks.
func (w *ingestWorkload) sendPositions(from, to int, send func([]service.Event) error) error {
	buf := make([]service.Event, 0, sendChunk)
	for pos := from; pos < to; pos++ {
		for u := range w.in.ids {
			buf = append(buf, w.in.event(u, pos))
			if len(buf) == cap(buf) {
				if err := send(buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
		}
	}
	if len(buf) > 0 {
		return send(buf)
	}
	return nil
}

func (w *ingestWorkload) close() {
	if w.c != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = w.c.Stop(ctx) // nothing to salvage from a fleet being discarded
		cancel()
		w.c = nil
	}
}

func (w *ingestWorkload) run(e *env, out *outcome) error {
	ctx := context.Background()
	stopSampler := w.startSampler(e)
	var err error
	if w.mode == modeSaturate {
		err = w.runClosed(ctx, e, out)
	} else {
		err = w.runOpen(ctx, e, out)
	}
	stopSampler()
	out.measurementDone()
	if err != nil {
		return err
	}
	if err := w.verify(out); err != nil {
		return err
	}
	if e.trace == nil {
		return nil
	}
	w.fleetMetrics(e.trace, out)
	return w.stageMetrics(ctx, e.sizes.stageBudget, out)
}

// runClosed is ingest_saturate's loop. Between generations every user is
// re-registered in process on its owner node, untimed: the LTS is a DAG, so
// a finished script cannot be replayed without a cursor reset, and a live
// fleet does no such management work per event.
func (w *ingestWorkload) runClosed(ctx context.Context, e *env, out *outcome) error {
	ring := w.c.Router.Ring()
	owners := make([]*runtime.Monitor, len(w.in.ids))
	for u, id := range w.in.ids {
		owners[u] = w.fleet.node(ring.Owner(id)).Monitor()
	}
	perGen := w.in.streamLen()
	start := time.Now()
	for gen := int64(0); gen < 2 || time.Since(start) < e.window(); gen++ {
		if gen > 0 {
			for u := range owners {
				if err := owners[u].RegisterUser(w.profiles[u]); err != nil {
					return err
				}
			}
		}
		tr := e.tracerAt(time.Since(start))
		cpu0 := processCPU()
		steal := startSteal()
		t0 := time.Now()
		root := tr.begin("generation", -1, gen)
		err := w.in.chunks(perGen, func(events []service.Event) error {
			id := tr.begin("router.send_batch", root, gen)
			defer tr.end(id)
			return w.c.Router.SendBatch(ctx, events)
		})
		if err != nil {
			return err
		}
		id := tr.begin("local.quiesce", root, gen)
		err = w.c.Quiesce(ctx)
		tr.end(id)
		tr.end(root)
		if err != nil {
			return err
		}
		out.recordOp(tr, time.Since(t0), float64(perGen), steal)
		tr.count("process.cpu_ns", float64(processCPU()-cpu0))
		w.generations++
	}
	w.sent = perGen
	return nil
}

// runOpen is the loop of ingest_steady and ingest_rebalance: events and
// probes leave on a 1 ms schedule whatever the fleet does.
func (w *ingestWorkload) runOpen(ctx context.Context, e *env, out *outcome) error {
	window := e.window()
	ticks := int(window / tick)
	perTick := w.rate / int(time.Second/tick)
	if perTick < 1 {
		perTick = 1
	}
	start := time.Now()

	stopPoller := make(chan struct{})
	var latencies []latency
	var pollerDone sync.WaitGroup
	pollerDone.Add(1)
	go func() {
		defer pollerDone.Done()
		latencies = w.pollProbes(start, stopPoller)
	}()
	memberErr := make(chan error, 1)
	if w.mode == modeRebalance {
		go func() { memberErr <- w.membership(ctx, e, out, start) }()
	} else {
		memberErr <- nil
	}

	buf := make([]service.Event, perTick)
	var sendErr error
	streamLen := w.in.streamLen()
	lag := runOpenLoop(wallClock{}, start, tick, ticks, func(i int, due time.Time) {
		if sendErr != nil {
			return
		}
		tr := e.tracerAt(due.Sub(start))
		root := tr.begin("tick", -1, int64(i))
		defer tr.end(root)
		n := perTick
		if w.sent+n > streamLen {
			n = streamLen - w.sent
		}
		if n > 0 {
			w.in.fill(buf[:n], w.sent)
			id := tr.begin("router.send_batch", root, int64(i))
			t0 := time.Now()
			sendErr = w.c.Router.SendBatch(ctx, buf[:n])
			if d := int64(time.Since(t0)); d > w.stallNs.Load() {
				w.stallNs.Store(d)
			}
			tr.end(id)
			w.sent += n
		}
		if i%probeEvery != 0 {
			return
		}
		for _, pr := range w.probes {
			pr.due[pr.sent].Store(int64(due.Sub(start)))
			pr.sent++
			id := tr.begin("router.send_probe", root, int64(i))
			if err := w.c.Router.Send(ctx, probeEvent(pr.id)); err != nil && sendErr == nil {
				sendErr = err
			}
			tr.end(id)
		}
	})
	err := <-memberErr
	if sendErr != nil {
		err = sendErr
	}
	if err == nil {
		err = w.c.Quiesce(ctx)
	}
	measured := time.Since(start)
	close(stopPoller)
	pollerDone.Wait()
	if err != nil {
		return err
	}

	probesSent := 0
	for _, pr := range w.probes {
		probesSent += pr.sent
	}
	// A probe whose alert never became readable failed; every completed one
	// was checked by being read back.
	out.check(len(latencies) == probesSent, int64(probesSent), "%d of %d probes completed", len(latencies), probesSent)
	var untraced, traced []float64
	for _, l := range latencies {
		if e.tracerAt(l.due) == nil {
			untraced = append(untraced, l.ms)
		} else {
			traced = append(traced, l.ms)
		}
	}
	if w.mode == modeSteady {
		out.opMs, out.tracedOpMs = untraced, traced
	}
	out.work = float64(w.sent + probesSent)
	out.measured = measured
	for name, v := range map[string]float64{
		"cluster.add_node_ms":        median(w.changeMs["add_node"]),
		"cluster.remove_node_ms":     median(w.changeMs["remove_node"]),
		"cluster.evict_node_ms":      median(w.changeMs["evict_node"]),
		"cluster.send_stall_ms":      w.stallMs,
		"bench.latency_p50_ms":       median(untraced),
		"bench.latency_p90_ms":       percentile(untraced, 90),
		"bench.latency_p99_ms":       percentile(untraced, 99),
		"bench.probe_samples":        float64(len(untraced)),
		"bench.generator_lag_max_ms": float64(lag) / 1e6,
	} {
		out.layer[name] = v
	}
	return nil
}

// pollProbes watches every probe user's alert count on its current owner
// until told to stop, then once more so nothing Quiesce applied is missed.
func (w *ingestWorkload) pollProbes(start time.Time, stop <-chan struct{}) []latency {
	var out []latency
	for last := false; ; {
		now := time.Since(start)
		for _, pr := range w.probes {
			node := w.fleet.node(w.c.Router.Ring().Owner(pr.id))
			if node == nil {
				continue
			}
			snap, ok := node.Monitor().ExportUser(pr.id)
			if !ok {
				continue // mid-handoff: the next owner has it in a moment
			}
			for ; pr.done < snap.Alerts; pr.done++ {
				due := time.Duration(pr.due[pr.done].Load())
				out = append(out, latency{due: due, ms: float64(now-due) / 1e6})
			}
		}
		if last {
			return out
		}
		select {
		case <-stop:
			last = true
		default:
			time.Sleep(pollEvery)
		}
	}
}

// membershipPause separates the changes of a cycle, so each starts with
// traffic flowing again.
const membershipPause = 100 * time.Millisecond

// membership runs ingest_rebalance's cycles, as many as cyclePeriod fits into
// the window and spread evenly over it, each AddNode, RemoveNode(oldest), EvictNode(oldest), AddNode, which
// takes the fleet from two nodes through three, two and one back to two.
func (w *ingestWorkload) membership(ctx context.Context, e *env, out *outcome, start time.Time) error {
	cycles := int(e.window() / e.sizes.cyclePeriod)
	if cycles < 1 {
		cycles = 1
	}
	if e.trace != nil && cycles < 2 {
		cycles = 2 // one untraced, one traced
	}
	period := e.window() / time.Duration(cycles)
	for cyc := 0; cyc < cycles; cyc++ {
		if wait := time.Until(start.Add(time.Duration(cyc)*period + period/16)); wait > 0 {
			time.Sleep(wait)
		}
		tr := e.tracerAt(time.Since(start))
		steal := startSteal()
		root := tr.begin("membership_cycle", -1, int64(cyc))
		var total time.Duration
		for i, change := range []string{"add_node", "remove_node", "evict_node", "add_node"} {
			if i > 0 {
				time.Sleep(membershipPause)
			}
			w.stallNs.Store(0)
			id := tr.begin("local."+change, root, int64(cyc))
			t0 := time.Now()
			var err error
			switch change {
			case "add_node":
				var n *cluster.Node
				if n, err = w.c.AddNode(ctx); err == nil {
					w.fleet.add(n)
				}
			case "remove_node":
				name := w.fleet.oldest()
				if err = w.c.RemoveNode(ctx, name); err == nil {
					w.fleet.retire(name)
				}
			case "evict_node":
				name := w.fleet.oldest()
				if err = w.c.EvictNode(ctx, name); err == nil {
					w.fleet.retire(name)
				}
			}
			d := time.Since(t0)
			tr.end(id)
			if err != nil {
				return fmt.Errorf("%s in cycle %d: %w", change, cyc, err)
			}
			total += d
			w.changeMs[change] = append(w.changeMs[change], float64(d)/1e6)
			w.stallMs += float64(w.stallNs.Load()) / 1e6
		}
		tr.end(root)
		out.recordOp(tr, total, 0, steal)
	}
	return nil
}

// startSampler samples node and router counters every 10 ms during the
// traced half of a traced run; the returned function stops it.
func (w *ingestWorkload) startSampler(e *env) (stop func()) {
	if e.trace == nil {
		return func() {}
	}
	quit := make(chan struct{})
	var done sync.WaitGroup
	done.Add(1)
	go func() {
		defer done.Done()
		begin := time.NewTimer(e.window() / 2)
		defer begin.Stop()
		select {
		case <-begin.C:
		case <-quit:
			return
		}
		every := time.NewTicker(10 * time.Millisecond)
		defer every.Stop()
		for {
			select {
			case <-quit:
				return
			case <-every.C:
				for _, n := range w.fleet.everyNode() {
					e.trace.count("node.queue_depth", float64(n.Stats().QueueDepth))
				}
				e.trace.count("router.frames_sent", float64(w.c.Router.Stats().FramesSent))
			}
		}
	}()
	return func() {
		close(quit)
		done.Wait()
	}
}

// alertKey is an alert in comparable form (Alert carries an unexported
// sequence number that differs between deployments by design).
func alertKey(a runtime.Alert) string {
	return fmt.Sprintf("%d|%s|%s|%d|%s|%d|%s|%v|%t", a.Kind, a.UserID, a.Message, a.Risk,
		a.Event.Actor, a.Event.Action, a.Event.Datastore, a.Event.Fields, a.Event.Denied)
}

// verify compares the fleet with one in-process monitor fed the same stream:
// the merged alerts as a multiset, every user's final snapshot (state,
// events applied, alerts raised — the counters are carried across handoffs,
// so a lost or doubled event anywhere shows), and the fleet's own counters.
func (w *ingestWorkload) verify(out *outcome) error {
	ref, err := runtime.NewMonitor(w.model, runtime.Config{})
	if err != nil {
		return err
	}
	for _, p := range w.profiles {
		if err := ref.RegisterUser(p); err != nil {
			return err
		}
	}
	var refStats runtime.IngestStats
	alerting := 0
	feed := func(events []service.Event) error {
		for i := range events {
			if events[i].Denied || events[i].Actor == casestudy.ActorResearcher {
				alerting++
			}
		}
		refStats.Merge(ref.IngestBatch(events))
		return nil
	}
	if err := w.sendPositions(0, w.in.firstPos, feed); err != nil {
		return err
	}
	if err := w.in.chunks(w.sent, feed); err != nil {
		return err
	}
	probesSent := 0
	for _, pr := range w.probes {
		for i := 0; i < pr.sent; i++ {
			_ = feed([]service.Event{probeEvent(pr.id)}) // feed never fails
		}
		probesSent += pr.sent
	}
	// The reference itself must have seen what the generator meant to send:
	// every alerting event a denied or unmodelled alert, nothing else.
	if refStats.Denied+refStats.Unmodelled != alerting || refStats.RiskAlerts != 0 || refStats.Unregistered != 0 {
		return fmt.Errorf("reference monitor saw %+v for %d alerting events", refStats, alerting)
	}

	// Alerts: the closed loop replays the stream, so the fleet holds the
	// reference's alerts once per generation.
	times := 1
	if w.mode == modeSaturate {
		times = w.generations
	}
	balance := make(map[string]int)
	refAlerts := ref.Alerts()
	for _, a := range refAlerts {
		balance[alertKey(a)] += times
	}
	for _, a := range w.c.Alerts() {
		balance[alertKey(a)]--
	}
	wrong := int64(0)
	for _, n := range balance {
		if n < 0 {
			n = -n
		}
		wrong += int64(n)
	}
	expected := int64(len(refAlerts) * times)
	out.attempted += expected
	if wrong > 0 {
		out.fail(min(wrong, expected), "%d alerts differ between the fleet and the reference monitor", wrong)
	}

	// Snapshots, read from each user's current ring owner.
	ring := w.c.Router.Ring()
	for _, p := range w.profiles {
		want, _ := ref.ExportUser(p.ID)
		var got runtime.UserSnapshot
		if node := w.fleet.node(ring.Owner(p.ID)); node != nil {
			got, _ = node.Monitor().ExportUser(p.ID)
		}
		out.check(got.State == want.State && got.Applied == want.Applied && got.Alerts == want.Alerts, 1,
			"user %s: fleet has state %s applied %d alerts %d, reference %s %d %d",
			p.ID, got.State, got.Applied, got.Alerts, want.State, want.Applied, want.Alerts)
	}

	// Counters: everything sent was applied exactly once, nothing dropped.
	var applied, unregistered int64
	for _, n := range w.fleet.everyNode() {
		st := n.Stats()
		applied += int64(st.Ingest.Events)
		unregistered += int64(st.Ingest.Unregistered)
	}
	advance := len(w.in.ids) * w.in.firstPos
	want := int64(advance + w.sent*times + probesSent)
	rs := w.c.Router.Stats()
	out.check(applied == want && unregistered == 0 && rs.DroppedEvents == 0, want,
		"%d events applied (%d for unknown users), %d dropped; %d were sent", applied, unregistered, rs.DroppedEvents, want)
	if err := w.c.Router.Err(); err != nil {
		out.fail(1, "router: %v", err)
	}
	return nil
}

// fleetMetrics reads the per-layer metrics the run itself produced: spans of
// the traced half and the fleet's counters.
func (w *ingestWorkload) fleetMetrics(tr *tracer, out *outcome) {
	var ingest runtime.IngestStats
	var moved, deduped int64
	for _, n := range w.fleet.everyNode() {
		st := n.Stats()
		ingest.Merge(st.Ingest)
		moved += st.HandoffInUsers
		deduped += st.DedupedFrames
	}
	rs := w.c.Router.Stats()
	layer := out.layer
	layer["runtime.matched"] = float64(ingest.Matched)
	layer["runtime.unmodelled"] = float64(ingest.Unmodelled)
	layer["runtime.denied"] = float64(ingest.Denied)
	layer["runtime.risk_alerts"] = float64(ingest.RiskAlerts)
	layer["cluster.frames_sent"] = float64(rs.FramesSent)
	if rs.FramesSent > 0 {
		layer["cluster.events_per_frame"] = float64(rs.EventsSent) / float64(rs.FramesSent)
	}
	layer["cluster.rejected_429"] = float64(rs.Rejected429)
	layer["cluster.retries"] = float64(rs.Retries)
	layer["cluster.dropped_events"] = float64(rs.DroppedEvents)
	layer["cluster.deduped_frames"] = float64(deduped)
	layer["cluster.rerouted_events"] = float64(rs.ReroutedEvents)
	layer["cluster.users_moved"] = float64(moved)
	layer["cluster.queue_depth_max"] = tr.counterMax("node.queue_depth")
	layer["cluster.ring_skew"] = w.ringSkew
	layer["cluster.register_ns_per_user"] = w.registerNsPerUser

	if w.mode != modeSaturate {
		return
	}
	// Time inside SendBatch per event (blocking on a full window included),
	// and the process's CPU time per event; stageMetrics takes the encode and
	// node-ingest stages out of the latter, and what is left is the CPU the
	// Router's bookkeeping, the HTTP/2 client and server and the scheduler
	// spend on an event. (Sender and nodes overlap on separate CPUs, so wall
	// times cannot be subtracted.)
	perGen := float64(w.in.streamLen())
	layer["cluster.router_send_ns_per_event"] = median(tr.opSumsMs("router.send_batch")) * 1e6 / perGen
	layer["cluster.transport_ns_per_event"] = tr.counterSum("process.cpu_ns") / (perGen * float64(len(out.tracedOpMs)))
}

// processCPU is the user and system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
