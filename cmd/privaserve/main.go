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
// -events replays a JSON array of events through the monitor, one event at a
// time, before live serving starts, which is useful for smoke-testing a
// model against a recorded trace.
//
// -cluster N distributes the observation plane: N in-process ingest nodes
// (internal/cluster), each with its own monitor and HTTP server, fronted by
// a rendezvous-hash router that streams binary event frames to each user's
// owner node. The alert set is identical to single-monitor mode for every N;
// each node also exposes /metrics and /debug/pprof.
//
// Both modes serve the same way: a datastore hands each operation's event to
// the monitor, or to the router, before it answers the request, so no
// operation goes unobserved. On exit (the duration elapsed or an interrupt)
// privaserve stops the datastores, waits for the requests in flight, and
// prints the alert count.
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
	eventsPath := fs.String("events", "", "path to a JSON array of events to replay through the monitor at startup")
	modelCache := fs.String("model-cache", "", "directory of the persistent compiled-model cache (empty = off)")
	clusterNodes := fs.Int("cluster", 0, "spawn N in-process ingest nodes behind a rendezvous-hash router (0 = single monitor)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *duration < 0 {
		return fmt.Errorf("-duration %v is negative", *duration)
	}
	if *clusterNodes < 0 {
		return fmt.Errorf("-cluster %d is negative", *clusterNodes)
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
	engine, err := privascope.NewEngine(privascope.EngineOptions{CacheDir: *modelCache})
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
	monitor, err := engine.Monitor(ctx, model, privascope.MonitorConfig{})
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

	fmt.Fprintf(out, "monitoring user %q (consented services: %v)\n", profile.ID, profile.ConsentedServices)
	reason, err := serve(ctx, model, *duration, out, func(ev privascope.Event) {
		if ev.UserID != profile.ID {
			return
		}
		obs, err := monitor.Observe(ev)
		if err != nil {
			fmt.Fprintf(out, "event %d ignored: %v\n", ev.Seq, err)
			return
		}
		fmt.Fprintf(out, "event %d: %s(%v) by %s on %s -> state %s\n",
			ev.Seq, ev.Action, ev.Fields, ev.Actor, ev.Datastore, obs.To)
		for _, alert := range obs.Alerts {
			fmt.Fprintf(out, "ALERT [%s]: %s\n", alert.Kind, alert.Message)
		}
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "privaserve: %s; %d alerts recorded\n", reason, len(monitor.Alerts()))
	return nil
}

// serve runs the model's datastores, one HTTP server each, prints their URLs
// and serves until ctx ends or the duration elapses (0 = until ctx ends). A
// datastore hands each operation's event to sink before it answers: sink runs
// on the servers' request goroutines, one event at a time in Seq order, and a
// slow sink slows the clients down. serve stops the servers before it
// returns, which waits for the requests in flight, so every operation a
// client saw answered has reached sink. It returns why serving stopped.
func serve(ctx context.Context, model *privascope.Model, duration time.Duration,
	out io.Writer, sink func(privascope.Event)) (reason string, err error) {

	datastores, err := privascope.StartCluster(model, sink)
	if err != nil {
		return "", err
	}
	defer func() {
		stop, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if stopErr := datastores.Stop(stop); stopErr != nil && err == nil {
			err = fmt.Errorf("stopping the datastores: %w", stopErr)
		}
	}()
	stores := datastores.Datastores()
	sort.Strings(stores)
	fmt.Fprintf(out, "privaserve: serving %d datastores for model %q\n", len(stores), model.Name)
	for _, id := range stores {
		url, err := datastores.URL(id)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(out, "  %-20s %s\n", id, url)
	}

	var deadline <-chan time.Time
	if duration > 0 {
		timer := time.NewTimer(duration)
		defer timer.Stop()
		deadline = timer.C
	}
	select {
	case <-ctx.Done():
		return "interrupted", nil
	case <-deadline:
		return "duration elapsed", nil
	}
}

// replayEvents feeds a recorded JSON event trace through the monitor one
// event at a time, printing one line per event plus any alerts. Events for
// users other than the monitored one are skipped. Cancelling ctx aborts the
// replay between two events.
func replayEvents(ctx context.Context, path string, monitor *privascope.Monitor, userID string, out io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading events: %w", err)
	}
	var events []privascope.Event
	if err := json.Unmarshal(data, &events); err != nil {
		return fmt.Errorf("parsing events: %w", err)
	}
	replayed, skipped := 0, 0
	for _, ev := range events {
		if ev.UserID != userID {
			skipped++
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		obs, err := monitor.Observe(ev)
		if err != nil {
			return fmt.Errorf("replaying events: event %d: %w", replayed, err)
		}
		replayed++
		fmt.Fprintf(out, "replay %d: %s(%v) by %s on %s -> state %s\n",
			replayed, ev.Action, ev.Fields, ev.Actor, ev.Datastore, obs.To)
		for _, alert := range obs.Alerts {
			fmt.Fprintf(out, "ALERT [%s]: %s\n", alert.Kind, alert.Message)
		}
	}
	fmt.Fprintf(out, "replay complete: %d events (%d skipped), %d alerts\n",
		replayed, skipped, len(monitor.Alerts()))
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
