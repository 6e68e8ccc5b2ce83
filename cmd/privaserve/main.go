// Command privaserve runs a data-flow model as a set of live HTTP datastore
// services with a runtime privacy monitor attached: every datastore of the
// model gets its own server, every operation is logged, and the monitor
// replays the event stream onto the generated privacy LTS, printing an alert
// whenever risky or unmodelled behaviour is observed.
//
// Usage:
//
//	privaserve -model model.json [-profile profile.json] [-duration 30s]
//	           [-events replay.json] [-model-cache dir] [-cluster N]
//
// The server addresses are printed on startup; drive them with any HTTP
// client (the X-Privascope-Actor header selects the acting actor). The
// process exits after -duration (0 means run until interrupted).
//
// -events replays a JSON array of events through the monitor's
// batch-ingestion path before live serving starts, which is useful for
// smoke-testing a model against a recorded trace.
//
// -cluster N distributes the observation plane: N in-process ingest nodes
// (internal/cluster), each with its own monitor and HTTP server, fronted by
// a rendezvous-hash router that streams binary event frames to each user's
// owner node. The alert set is identical to single-monitor mode for every N;
// each node also exposes /metrics and /debug/pprof.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"time"

	"privascope"
)

func main() {
	// Ctrl-C during startup (generation, replay) cancels the in-flight work
	// and exits non-zero; once the servers are up, the same signal triggers
	// the graceful "interrupted" shutdown path inside run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "privaserve: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "privaserve:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("privaserve", flag.ContinueOnError)
	modelPath := fs.String("model", "", "path to the model document (JSON)")
	profilePath := fs.String("profile", "", "path to the monitored user's profile (JSON)")
	duration := fs.Duration("duration", 0, "how long to serve before exiting (0 = until interrupted)")
	workers := fs.Int("workers", 0, "parallel LTS-generation workers (0 = one per CPU)")
	symmetry := fs.Bool("symmetry", false, "symmetry-reduced LTS generation (identical output, fewer explored states)")
	eventsPath := fs.String("events", "", "path to a JSON array of events to replay through the monitor at startup")
	modelCache := fs.String("model-cache", "", "directory of the persistent compiled-model cache (empty = off)")
	clusterNodes := fs.Int("cluster", 0, "spawn N in-process ingest nodes behind a rendezvous-hash router (0 = single monitor)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *modelPath == "" {
		return fmt.Errorf("the -model flag is required")
	}
	model, err := privascope.LoadModel(*modelPath)
	if err != nil {
		return err
	}

	// With -model-cache, a warm cache entry makes startup skip LTS generation
	// and load the compiled model straight from disk.
	engine, err := privascope.NewEngine(privascope.EngineOptions{
		Generate: privascope.GenerateOptions{Workers: *workers,
			Explore: privascope.ExploreOptions{Symmetry: *symmetry}},
		CacheDir: *modelCache,
	})
	if err != nil {
		return err
	}
	generated, err := engine.Model(ctx, model)
	if err != nil {
		return err
	}
	profile, err := loadProfile(*profilePath, model)
	if err != nil {
		return err
	}
	if *clusterNodes > 0 {
		return runClusterMode(ctx, *clusterNodes, generated, model, profile,
			*eventsPath, *duration, out)
	}
	monitor, err := privascope.NewMonitor(generated, privascope.MonitorConfig{})
	if err != nil {
		return err
	}
	if err := monitor.RegisterUserContext(ctx, profile); err != nil {
		return err
	}

	if *eventsPath != "" {
		if err := replayEvents(ctx, *eventsPath, monitor, profile.ID, out); err != nil {
			return err
		}
	}

	cluster, err := privascope.StartCluster(model)
	if err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = cluster.Stop(ctx)
	}()

	stores := cluster.Datastores()
	sort.Strings(stores)
	fmt.Fprintf(out, "privaserve: serving %d datastores for model %q\n", len(stores), model.Name)
	for _, id := range stores {
		url, err := cluster.URL(id)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "  %-20s %s\n", id, url)
	}
	fmt.Fprintf(out, "monitoring user %q (consented services: %v)\n", profile.ID, profile.ConsentedServices)

	events, cancel := cluster.Log().Subscribe(256)
	defer cancel()

	// Batch the live stream: one goroutine drains the subscription in bursts
	// (privascope.NextEventBatch) and the monitor ingests each burst through
	// its batch path. The done channel unblocks a pending send when run
	// returns before the subscription closes (deadline or interrupt), so
	// in-process callers (tests) do not leak the goroutine.
	done := make(chan struct{})
	defer close(done)
	batches := make(chan []privascope.Event)
	go func() {
		defer close(batches)
		for {
			batch := privascope.NextEventBatch(events, 256)
			if batch == nil {
				return
			}
			select {
			case batches <- batch:
			case <-done:
				return
			}
		}
	}()

	var deadline <-chan time.Time
	if *duration > 0 {
		timer := time.NewTimer(*duration)
		defer timer.Stop()
		deadline = timer.C
	}

	for {
		select {
		case batch, ok := <-batches:
			if !ok {
				return nil
			}
			mine := batch[:0:0]
			for _, ev := range batch {
				if ev.UserID == profile.ID {
					mine = append(mine, ev)
				}
			}
			if len(mine) == 0 {
				continue
			}
			observations, err := monitor.ObserveBatch(mine)
			if err != nil {
				fmt.Fprintf(out, "batch partially ignored: %v\n", err)
			}
			for i, obs := range observations {
				ev := mine[i]
				if obs.From == "" {
					// Zero observation: the event errored (see the joined
					// error above) and was never applied.
					fmt.Fprintf(out, "event %d ignored\n", ev.Seq)
					continue
				}
				fmt.Fprintf(out, "event %d: %s(%v) by %s on %s -> state %s\n",
					ev.Seq, ev.Action, ev.Fields, ev.Actor, ev.Datastore, obs.To)
				for _, alert := range obs.Alerts {
					fmt.Fprintf(out, "ALERT [%s]: %s\n", alert.Kind, alert.Message)
				}
			}
		case <-ctx.Done():
			// Graceful shutdown: the deferred cluster stop and subscription
			// cancel run on the way out.
			fmt.Fprintln(out, "privaserve: interrupted")
			return nil
		case <-deadline:
			fmt.Fprintf(out, "privaserve: duration elapsed; %d alerts recorded\n", len(monitor.Alerts()))
			return nil
		}
	}
}

// replayEvents feeds a recorded JSON event trace through the monitor's batch
// path, printing one line per event plus any alerts. Events for users other
// than the monitored one are skipped. Cancelling ctx aborts the replay
// mid-batch.
func replayEvents(ctx context.Context, path string, monitor *privascope.Monitor, userID string, out io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading events: %w", err)
	}
	var events []privascope.Event
	if err := json.Unmarshal(data, &events); err != nil {
		return fmt.Errorf("parsing events: %w", err)
	}
	replay := make([]privascope.Event, 0, len(events))
	skipped := 0
	for _, ev := range events {
		if ev.UserID != userID {
			skipped++
			continue
		}
		replay = append(replay, ev)
	}
	observations, err := monitor.ObserveBatchContext(ctx, replay)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("replaying events: %w", err)
	}
	for i, obs := range observations {
		ev := replay[i]
		fmt.Fprintf(out, "replay %d: %s(%v) by %s on %s -> state %s\n",
			i+1, ev.Action, ev.Fields, ev.Actor, ev.Datastore, obs.To)
		for _, alert := range obs.Alerts {
			fmt.Fprintf(out, "ALERT [%s]: %s\n", alert.Kind, alert.Message)
		}
	}
	fmt.Fprintf(out, "replay complete: %d events (%d skipped), %d alerts\n",
		len(replay), skipped, len(monitor.Alerts()))
	return nil
}

func loadProfile(path string, model *privascope.Model) (privascope.UserProfile, error) {
	if path == "" {
		return privascope.UserProfile{
			ID:                 "monitored-user",
			ConsentedServices:  model.ServiceIDs(),
			DefaultSensitivity: 0.5,
		}, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return privascope.UserProfile{}, fmt.Errorf("reading profile: %w", err)
	}
	var profile privascope.UserProfile
	if err := json.Unmarshal(data, &profile); err != nil {
		return privascope.UserProfile{}, fmt.Errorf("parsing profile: %w", err)
	}
	if err := profile.Validate(); err != nil {
		return privascope.UserProfile{}, err
	}
	return profile, nil
}
