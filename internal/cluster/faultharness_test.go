package cluster

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"privascope/internal/cluster/fault"
	"privascope/internal/proptest"
	"privascope/internal/proptest/scenario"
	"privascope/internal/runtime"
	"privascope/internal/synth"
)

// faultSchedule is the golden harness's mixed schedule: drops, resets,
// delays, injected 503s, lost responses, and one short partition window per
// host — confined to /ingest so the management plane (handoffs, registrations
// among them) stays out of the per-host ordinal sequence.
func faultSchedule(seed int64) fault.Config {
	return fault.Config{
		Seed:         seed,
		Drop:         0.06,
		Reset:        0.03,
		Status:       0.06,
		ResponseDrop: 0.05,
		Delay:        0.08,
		DelayMin:     100 * time.Microsecond,
		DelayMax:     time.Millisecond,
		Partitions:   []fault.Partition{{From: 4, To: 7}},
		Paths:        []string{"/ingest"},
	}
}

// faultRouterConfig pairs the schedule with a retry budget that outlasts any
// plausible consecutive-failure run (the partition window is 3 ordinals; the
// independent per-request fault probability is ~0.28) and, like
// crashRouterConfig, the gap between a crashed node's server stopping and its
// eviction, so no frame sequence is ever abandoned and the no-loss comparison
// below is meaningful.
func faultRouterConfig(seed int64, transport http.RoundTripper) RouterConfig {
	cfg := crashRouterConfig()
	cfg.BatchEvents = 4
	cfg.BackoffJitterSeed = seed
	cfg.HTTPClient = &http.Client{Transport: transport}
	return cfg
}

// TestClusterFaultDeterminismGolden is the fault-tolerance acceptance
// harness: under a seeded fault schedule, with a node joining and another
// crashing mid-stream, a 1-, 2- and 4-node cluster each produce exactly the
// alert set and per-user cursors of one uninterrupted single-process monitor
// — zero accepted events lost, zero double-applied, reproducible from the
// printed seed (override with CLUSTER_FAULT_SEED).
func TestClusterFaultDeterminismGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("spins HTTP servers and injects delays")
	}
	seed := int64(20260808)
	if env := os.Getenv("CLUSTER_FAULT_SEED"); env != "" {
		v, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("CLUSTER_FAULT_SEED %q: %v", env, err)
		}
		seed = v
	}
	t.Logf("fault schedule seed %d (rerun with CLUSTER_FAULT_SEED=%d)", seed, seed)

	p := surgeryModel(t)
	profiles := membershipProfiles(16)
	users := make([]string, len(profiles))
	for i, pr := range profiles {
		users[i] = pr.ID
	}
	stream := synth.RandomEventStream(rand.New(rand.NewSource(seed)), p, users, 20)
	direct := directMonitor(t, profiles, stream)

	for _, nodes := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			injector := fault.New(H2CTransport(), faultSchedule(seed))
			c, err := StartLocal(p, nodes, NodeConfig{}, faultRouterConfig(seed, injector))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Stop(context.Background())
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			if err := c.Router.Register(ctx, profiles); err != nil {
				t.Fatal(err)
			}
			victim := c.Nodes[0].Name()

			q := len(stream) / 4
			if err := c.Router.SendBatch(ctx, stream[:q]); err != nil {
				t.Fatal(err)
			}
			if _, err := c.AddNode(ctx); err != nil {
				t.Fatal(err)
			}
			if err := c.Router.SendBatch(ctx, stream[q:2*q]); err != nil {
				t.Fatal(err)
			}
			// Crash the victim with the third quarter unflushed: its server
			// stops mid-delivery, the router parks what it could not deliver,
			// and the eviction re-routes it under the new ring.
			if err := c.Router.SendBatch(ctx, stream[2*q:3*q]); err != nil {
				t.Fatal(err)
			}
			for i, n := range c.Nodes {
				if n.Name() == victim {
					stopCtx, stopCancel := context.WithTimeout(ctx, 10*time.Second)
					if err := c.Servers[i].Stop(stopCtx); err != nil {
						t.Fatal(err)
					}
					stopCancel()
				}
			}
			if err := c.EvictNode(ctx, victim); err != nil {
				t.Fatal(err)
			}
			if err := c.Router.SendBatch(ctx, stream[3*q:]); err != nil {
				t.Fatal(err)
			}

			requireClusterMatchesDirect(t, c, direct, users)

			rstats := c.Router.Stats()
			if rstats.Dropped != 0 {
				t.Fatalf("router abandoned %d sequences under faults: %+v", rstats.Dropped, rstats)
			}
			if want := int64(1 + 2); rstats.Epoch != want {
				t.Fatalf("epoch = %d after join+eviction, want %d", rstats.Epoch, want)
			}
			istats := injector.Stats()
			if istats.Requests == 0 || istats.Dropped+istats.Statuses+istats.Resets+istats.Partitioned == 0 {
				t.Fatalf("fault injector was idle: %+v", istats)
			}
			var deduped int64
			for _, n := range append(append([]*Node(nil), c.Nodes...), c.retired...) {
				deduped += n.Stats().DedupedFrames
			}
			t.Logf("nodes=%d: injector %+v; router retries=%d rerouted=%d failover-skipped=%d; deduped frames=%d",
				nodes, istats, rstats.Retries, rstats.ReroutedEvents, rstats.FailoverSkippedFrames, deduped)
			if istats.ResponseDrops > 0 && deduped == 0 && rstats.FailoverSkippedFrames == 0 {
				t.Errorf("%d responses were dropped but nothing was deduplicated or cursor-skipped: lost-ack retries were double-applied?", istats.ResponseDrops)
			}
		})
	}
}

// TestClusterFaultDeterminismProperty randomizes what the golden harness
// pins: random scenarios, node counts, fault rates and a random membership
// change (join, leave, or crash+evict) mid-stream — the cluster must still
// match the direct monitor exactly. Rides the CI property soak via
// PROP_PACKAGES. One more round has a black hole in place of the membership
// change, and a prober to evict it (faultRound).
func TestClusterFaultDeterminismProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("spins HTTP servers per round")
	}
	prop := func(seed int64, rng *rand.Rand) error { return faultRound(seed, rng, false) }
	// Rounds pinned so they run whatever the round schedule draws, both
	// crash+evict: in the first the victim was slow enough to stop that a short
	// retry budget ran out before the eviction; in the second a flush tick
	// found the victim's window full and, waiting on it with the membership
	// lock held, stalled the eviction until the frames were dropped.
	for _, seed := range []int64{-915060868552363120, 7891740240020887782} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			if err := proptest.CheckSeed(seed, prop); err != nil {
				t.Fatalf("%s", proptest.FailureMessage(t.Name(), seed, err))
			}
		})
	}
	t.Run("black-hole", func(t *testing.T) {
		const seed = 20260808
		hole := func(seed int64, rng *rand.Rand) error { return faultRound(seed, rng, true) }
		if err := proptest.CheckSeed(seed, hole); err != nil {
			t.Fatalf("%s", proptest.FailureMessage(t.Name(), seed, err))
		}
	})
	proptest.Run(t, prop)
}

// faultRound is one round of the fault property. With blackHole set no
// membership change is drawn: one node stops answering mid-stream — its
// /ingest and /healthz requests hang — and a prober has to notice and evict it
// while the router is still sending to it.
func faultRound(seed int64, rng *rand.Rand, blackHole bool) error {
	s := scenario.Draw(seed)
	p, err := s.Generate()
	if err != nil {
		return err
	}
	users := make([]string, len(s.Profiles))
	for i, profile := range s.Profiles {
		users[i] = profile.ID
	}
	perUser := 1 + (48+len(users)-1)/len(users)
	stream := synth.RandomEventStream(rng, p, users, perUser)

	direct, err := runtime.NewMonitor(p, runtime.Config{})
	if err != nil {
		return err
	}
	for _, profile := range s.Profiles {
		if err := direct.RegisterUser(profile); err != nil {
			return err
		}
	}
	direct.IngestBatch(stream)

	cfg := faultSchedule(seed)
	cfg.Drop = rng.Float64() * 0.1
	cfg.Reset = rng.Float64() * 0.05
	cfg.Status = rng.Float64() * 0.1
	cfg.ResponseDrop = rng.Float64() * 0.08
	cfg.Delay = rng.Float64() * 0.1
	injector := fault.New(H2CTransport(), cfg)
	transport := newSwitchTransport(injector)
	nodes := 1 + rng.Intn(3)
	if blackHole {
		nodes = 2 + rng.Intn(2) // the black-holed node's users need a new owner
	}
	c, err := StartLocal(p, nodes, NodeConfig{}, faultRouterConfig(seed, transport))
	if err != nil {
		return err
	}
	defer c.Stop(context.Background())
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := c.Router.Register(ctx, s.Profiles); err != nil {
		return err
	}
	var hole string
	evicted := make(chan string, nodes)
	if blackHole {
		// The hang sits in front of the seeded schedule and is all that sees
		// the probes: the schedule's ordinals stay the router's frames. The
		// host's first three requests pass, so the node has state to fail over.
		i := rng.Intn(nodes)
		hole = c.Nodes[i].Name()
		transport.use(fault.New(injector, fault.Config{
			Paths: []string{"/ingest", "/healthz"},
			Hang:  []fault.Partition{{Host: strings.TrimPrefix(c.Servers[i].URL(), "http://"), From: 3, To: math.MaxUint64}},
		}))
		prober := c.StartProber(ProberConfig{
			Interval: 5 * time.Millisecond,
			Timeout:  250 * time.Millisecond, // a loaded host must not cost a healthy node three probes
			OnEvict: func(name string, err error) {
				if err == nil {
					evicted <- name
				}
			},
		})
		defer prober.Stop()
	}
	half := len(stream) / 2
	if err := c.Router.SendBatch(ctx, stream[:half]); err != nil {
		return err
	}

	switch op := rng.Intn(3); {
	case blackHole:
		for name := ""; name != hole; {
			select {
			case name = <-evicted:
			case <-ctx.Done():
				return fmt.Errorf("the prober never evicted the black-holed node %q: %w", hole, ctx.Err())
			}
		}
	case op == 0:
		if _, err := c.AddNode(ctx); err != nil {
			return fmt.Errorf("join: %w", err)
		}
	case op == 1 && len(c.Nodes) > 1:
		if err := c.RemoveNode(ctx, c.Nodes[rng.Intn(len(c.Nodes))].Name()); err != nil {
			return fmt.Errorf("leave: %w", err)
		}
	case op == 2 && len(c.Nodes) > 1:
		victim := c.Nodes[rng.Intn(len(c.Nodes))].Name()
		for i, n := range c.Nodes {
			if n.Name() == victim {
				stopCtx, stopCancel := context.WithTimeout(ctx, 10*time.Second)
				err := c.Servers[i].Stop(stopCtx)
				stopCancel()
				if err != nil {
					return err
				}
			}
		}
		if err := c.EvictNode(ctx, victim); err != nil {
			return fmt.Errorf("evict: %w", err)
		}
	}
	if err := c.Router.SendBatch(ctx, stream[half:]); err != nil {
		return err
	}
	if err := c.Quiesce(ctx); err != nil {
		return err
	}

	if got, want := sortedComparable(c.Alerts()), sortedComparable(direct.Alerts()); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("seed %d: merged alerts differ under faults:\n got %d: %+v\nwant %d: %+v",
			seed, len(got), got, len(want), want)
	}
	ring := c.Router.Ring()
	byName := make(map[string]*Node, len(c.Nodes))
	for _, n := range c.Nodes {
		byName[n.Name()] = n
	}
	for _, id := range users {
		owner, ok := byName[ring.Owner(id)]
		if !ok {
			return fmt.Errorf("seed %d: user %q owned by dead node %q", seed, id, ring.Owner(id))
		}
		got, ok1 := owner.Monitor().ExportUser(id)
		want, ok2 := direct.ExportUser(id)
		if !ok1 || !ok2 || !reflect.DeepEqual(got, want) {
			return fmt.Errorf("seed %d: user %q snapshot differs: cluster %+v (%v), direct %+v (%v)",
				seed, id, got, ok1, want, ok2)
		}
	}
	if stats := c.Router.Stats(); stats.Dropped != 0 {
		return fmt.Errorf("seed %d: router abandoned %d sequences", seed, stats.Dropped)
	}
	return nil
}
