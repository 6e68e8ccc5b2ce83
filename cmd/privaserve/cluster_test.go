package main

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"privascope/internal/casestudy"
	"privascope/internal/cluster"
	"privascope/internal/core"
	"privascope/internal/risk"
)

// clusterAlertSection extracts the sorted ALERT lines and the replay summary
// of cluster-mode output.
func clusterAlertSection(output string) string {
	var lines []string
	for _, line := range strings.Split(output, "\n") {
		if strings.HasPrefix(line, "ALERT") || strings.HasPrefix(line, "cluster replay complete") {
			lines = append(lines, line)
		}
	}
	return strings.Join(lines, "\n")
}

// goldenClusterReplay is the expected alert block for the healthcare fixture
// in cluster mode: the same three alerts as the single-monitor golden
// transcript (sorted, because the cross-node merge has no global order),
// with the unregistered user's event counted instead of skipped.
const goldenClusterReplay = `ALERT [denied-operation]: access-control denied read by "nurse" on ehr.[diagnosis]
ALERT [risk]: medium-risk disclosure event for user "patient-1": non-allowed actor "administrator" may read date_of_birth, diagnosis, medical_issues, name, treatment from datastore "ehr" although no declared flow requires it; most sensitive field "diagnosis" (impact 0.90/high, likelihood 0.15/low) => risk medium
ALERT [unmodelled-behaviour]: observed read of [diagnosis] by "researcher" on "ehr" has no matching transition from state s21; the design model and the running system disagree
cluster replay complete: 10 events (1 unregistered), 3 alerts`

// TestRunClusterReplayGoldenAcrossNodeCounts runs privaserve -cluster N
// end-to-end — model generation, N ingest nodes, the router replaying the
// recorded trace over HTTP/2 binary frames, then live serving until the
// duration elapses — and requires the identical alert block for 1, 2 and 4
// nodes, matching the single-monitor golden alerts.
func TestRunClusterReplayGoldenAcrossNodeCounts(t *testing.T) {
	modelPath, profilePath, eventsPath := replayFixture(t, t.TempDir())
	outputs := make(map[int]string)
	for _, nodes := range []int{1, 2, 4} {
		var out strings.Builder
		err := run(context.Background(), []string{
			"-model", modelPath,
			"-profile", profilePath,
			"-events", eventsPath,
			"-cluster", fmt.Sprint(nodes),
			"-duration", "100ms",
		}, &out)
		if err != nil {
			t.Fatalf("cluster=%d: run: %v", nodes, err)
		}
		text := out.String()
		if want := fmt.Sprintf("cluster: %d ingest nodes", nodes); !strings.Contains(text, want) {
			t.Errorf("cluster=%d: output missing %q", nodes, want)
		}
		if !strings.Contains(text, "duration elapsed; 3 alerts recorded") {
			t.Errorf("cluster=%d: output missing the final alert count:\n%s", nodes, text)
		}
		outputs[nodes] = clusterAlertSection(text)
	}
	for _, nodes := range []int{2, 4} {
		if outputs[nodes] != outputs[1] {
			t.Errorf("alert block differs between 1 and %d nodes:\n--- nodes=1\n%s\n--- nodes=%d\n%s",
				nodes, outputs[1], nodes, outputs[nodes])
		}
	}
	if outputs[1] != goldenClusterReplay {
		t.Errorf("alert block does not match the golden transcript:\n--- got\n%s\n--- want\n%s",
			outputs[1], goldenClusterReplay)
	}
}

// twoNodeFleet starts a two-node local cluster over the surgery model and
// stops it when the test ends.
func twoNodeFleet(t *testing.T) *cluster.Local {
	t.Helper()
	generated, err := core.Generate(casestudy.Surgery())
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.StartLocal(generated, 2, cluster.NodeConfig{}, cluster.RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Stop(context.Background()) })
	return c
}

// TestMembershipSummaryReportsLastChange: a run without a membership change
// keeps its one-line summary; after one, the handoff line says what the fleet
// moved, how long sends were parked and where the last change's time went.
func TestMembershipSummaryReportsLastChange(t *testing.T) {
	c := twoNodeFleet(t)
	ctx := context.Background()
	var profiles []risk.UserProfile
	for i := 0; i < 64; i++ {
		p := casestudy.PatientProfile()
		p.ID = fmt.Sprintf("summary-user-%03d", i)
		profiles = append(profiles, p)
	}
	if err := c.Router.Register(ctx, profiles); err != nil {
		t.Fatal(err)
	}
	var before strings.Builder
	printMembershipStats(c, &before)
	if got := before.String(); strings.Count(got, "\n") != 1 || !strings.HasPrefix(got, "cluster: ring epoch 1;") {
		t.Fatalf("summary before any change:\n%s", got)
	}
	if _, err := c.AddNode(ctx); err != nil {
		t.Fatal(err)
	}
	var after strings.Builder
	printMembershipStats(c, &after)
	last := c.Router.Stats().LastChange
	for _, want := range []string{
		"cluster: ring epoch 2;",
		"1 membership changes parked sends for ",
		fmt.Sprintf("last: join of node2 at epoch 2 moved %d users in %d chunks in ", last.UsersMoved, last.Chunks),
		"(seal ", ", handoff ", ", teardown 0s)",
	} {
		if !strings.Contains(after.String(), want) {
			t.Errorf("summary after a join is missing %q:\n%s", want, after.String())
		}
	}
}

// TestMembershipSummaryBesideEviction prints the summary while a node is
// evicted, as the prober's eviction may run beside the exit summary. Under
// -race it fails if the summary reads the fleet's node list without the lock
// the eviction rewrites it under.
func TestMembershipSummaryBesideEviction(t *testing.T) {
	c := twoNodeFleet(t)
	ctx := context.Background()
	evicted := make(chan error, 1)
	go func() { evicted <- c.EvictNode(ctx, "node1") }()
	for {
		printMembershipStats(c, io.Discard)
		select {
		case err := <-evicted:
			if err != nil {
				t.Fatal(err)
			}
			var after strings.Builder
			printMembershipStats(c, &after)
			if want := "last: evict of node1 at epoch 2"; !strings.Contains(after.String(), want) {
				t.Fatalf("summary after the eviction is missing %q:\n%s", want, after.String())
			}
			return
		default:
		}
	}
}

// gatedWriter is an output whose first Write stalls inside gate, and which
// notes whether a second Write ever entered meanwhile.
type gatedWriter struct {
	buf        strings.Builder
	gate       func()
	gated      atomic.Bool
	inside     atomic.Int32
	overlapped atomic.Bool
}

func (w *gatedWriter) Write(p []byte) (int, error) {
	if w.inside.Add(1) > 1 {
		w.overlapped.Store(true)
	}
	defer w.inside.Add(-1)
	if w.gated.CompareAndSwap(false, true) {
		w.gate()
	}
	return w.buf.Write(p)
}

// TestEvictionReportBesideReplay kills a node while replayEventsCluster is
// inside its first Write and keeps it there until the prober has evicted the
// node and had time to report it. The prober reports from its own goroutine:
// its line must wait for the replay's, not land inside it (without one lock
// around both, the writes overlap and -race reports the buffer).
func TestEvictionReportBesideReplay(t *testing.T) {
	c := twoNodeFleet(t)
	ctx := context.Background()
	if err := c.Router.Register(ctx, []risk.UserProfile{casestudy.PatientProfile()}); err != nil {
		t.Fatal(err)
	}
	_, _, eventsPath := replayFixture(t, t.TempDir())
	w := &gatedWriter{gate: func() {
		for i, n := range c.Nodes {
			if n.Name() == "node1" {
				if err := c.Servers[i].Stop(ctx); err != nil {
					t.Error(err)
				}
			}
		}
		for deadline := time.Now().Add(10 * time.Second); c.Router.Epoch() < 2 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(50 * time.Millisecond) // OnEvict runs as soon as the eviction returns
	}}
	prober, out := startProber(c, w)
	_, err := replayEventsCluster(ctx, eventsPath, c, out)
	prober.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if w.overlapped.Load() {
		t.Error("the eviction report was written while the replay was inside Write")
	}
	for _, want := range []string{"cluster replay complete: 10 events", `cluster: node "node1" evicted after failed liveness probes`} {
		if !strings.Contains(w.buf.String(), want) {
			t.Errorf("output is missing %q:\n%s", want, w.buf.String())
		}
	}
}
