package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"privascope/internal/cluster"
	"privascope/internal/runtime"
	"privascope/internal/service"
)

// stageUsers run their scripts through each stage replayed alone.
const stageUsers = 4096

// repeatFor calls f until it has accumulated at least the budget of timed
// work and returns the time per unit; f returns how long its timed part took
// and how many units it covered.
func repeatFor(budget time.Duration, f func() (time.Duration, int, error)) (nsPerUnit float64, err error) {
	var spent time.Duration
	units := 0
	for spent < budget {
		d, n, err := f()
		if err != nil {
			return 0, err
		}
		spent += d
		units += n
	}
	return float64(spent) / float64(units), nil
}

// stageMetrics replays the workload's own event stream through each ingest
// stage alone — frame codec, a node's handler without Router or wire, the
// monitor without a node, the handoff codec — and reads the management-plane
// calls on the fleet the run left behind.
func (w *ingestWorkload) stageMetrics(ctx context.Context, stageBudget time.Duration, out *outcome) error {
	layer := out.layer
	users := stageUsers
	if users > len(w.in.ids) {
		users = len(w.in.ids)
	}
	stage := newIngestInputs(0, users, users, 0)
	copy(stage.ids, w.in.ids[:users])
	copy(stage.kinds, w.in.kinds[:users])
	events := make([]service.Event, stage.streamLen())
	stage.fill(events, 0)
	var batches [][]service.Event
	for k := 0; k < len(events); k += sendChunk {
		end := k + sendChunk
		if end > len(events) {
			end = len(events)
		}
		batches = append(batches, events[k:end])
	}

	// Frame codec.
	frames := make([][]byte, len(batches))
	frameBytes := 0
	var err error
	layer["cluster.encode_frame_ns_per_event"], err = repeatFor(stageBudget, func() (time.Duration, int, error) {
		t0 := time.Now()
		frameBytes = 0
		for i, b := range batches {
			if frames[i], err = cluster.EncodeFrame(b); err != nil {
				return 0, 0, err
			}
			frameBytes += len(frames[i])
		}
		return time.Since(t0), len(events), nil
	})
	if err != nil {
		return err
	}
	layer["cluster.frame_bytes_per_event"] = float64(frameBytes) / float64(len(events))
	layer["cluster.decode_frame_ns_per_event"], err = repeatFor(stageBudget, func() (time.Duration, int, error) {
		t0 := time.Now()
		for _, f := range frames {
			if _, err := cluster.DecodeFrame(f); err != nil {
				return 0, 0, err
			}
		}
		return time.Since(t0), len(events), nil
	})
	if err != nil {
		return err
	}

	// A node fed pre-encoded frames through its handler: decode, admission,
	// queue, apply — no Router, no wire. Cursors are reset untimed.
	node, err := cluster.NewNode(w.model, cluster.NodeConfig{Name: "stage"})
	if err != nil {
		return err
	}
	defer node.Close()
	profiles := w.profiles[:users]
	register := func(m *runtime.Monitor) (time.Duration, error) {
		t0 := time.Now()
		for _, p := range profiles {
			if err := m.RegisterUser(p); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	}
	layer["cluster.node_ingest_ns_per_event"], err = repeatFor(stageBudget, func() (time.Duration, int, error) {
		if _, err := register(node.Monitor()); err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		for _, f := range frames {
			rec := httptest.NewRecorder()
			node.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(f)))
			if rec.Code != http.StatusAccepted {
				return 0, 0, fmt.Errorf("stage node answered %d: %s", rec.Code, rec.Body)
			}
		}
		if err := node.Quiesce(ctx); err != nil {
			return 0, 0, err
		}
		return time.Since(t0), len(events), nil
	})
	if err != nil {
		return err
	}
	if w.mode == modeSaturate {
		layer["cluster.transport_ns_per_event"] -= layer["cluster.encode_frame_ns_per_event"] + layer["cluster.node_ingest_ns_per_event"]
	}

	// The monitor alone, and its per-user management calls.
	mon, err := runtime.NewMonitor(w.model, runtime.Config{})
	if err != nil {
		return err
	}
	var registerNs []float64
	layer["runtime.ingest_batch_ns_per_event"], err = repeatFor(stageBudget, func() (time.Duration, int, error) {
		d, err := register(mon)
		if err != nil {
			return 0, 0, err
		}
		registerNs = append(registerNs, float64(d)/float64(users))
		t0 := time.Now()
		for _, b := range batches {
			mon.IngestBatch(b)
		}
		return time.Since(t0), len(events), nil
	})
	if err != nil {
		return err
	}
	layer["runtime.register_user_ns"] = median(registerNs)
	snaps := make([]runtime.UserSnapshot, users)
	layer["runtime.export_user_ns"], err = repeatFor(stageBudget/4, func() (time.Duration, int, error) {
		t0 := time.Now()
		for u, id := range stage.ids {
			snaps[u], _ = mon.ExportUser(id)
		}
		return time.Since(t0), users, nil
	})
	if err != nil {
		return err
	}
	layer["runtime.import_user_ns"], err = repeatFor(stageBudget/4, func() (time.Duration, int, error) {
		t0 := time.Now()
		for _, snap := range snaps {
			if err := mon.ImportUser(snap); err != nil {
				return 0, 0, err
			}
		}
		return time.Since(t0), users, nil
	})
	if err != nil {
		return err
	}

	// Handoff codec over those snapshots.
	var handoff []byte
	layer["cluster.encode_handoff_ns_per_user"], err = repeatFor(stageBudget/4, func() (time.Duration, int, error) {
		t0 := time.Now()
		handoff, err = cluster.EncodeHandoff(snaps)
		return time.Since(t0), users, err
	})
	if err != nil {
		return err
	}
	layer["cluster.handoff_bytes_per_user"] = float64(len(handoff)) / float64(users)
	layer["cluster.decode_handoff_ns_per_user"], err = repeatFor(stageBudget/4, func() (time.Duration, int, error) {
		t0 := time.Now()
		_, err := cluster.DecodeHandoff(handoff)
		return time.Since(t0), users, err
	})
	if err != nil {
		return err
	}

	// Ring lookups.
	ring := w.c.Router.Ring()
	layer["cluster.ring_owner_ns"], err = repeatFor(stageBudget/4, func() (time.Duration, int, error) {
		t0 := time.Now()
		for _, id := range w.in.ids {
			ring.Owner(id)
		}
		return time.Since(t0), len(w.in.ids), nil
	})
	if err != nil {
		return err
	}

	// The fleet as the run left it: how long one buffered event takes to be
	// flushed and accepted (the floor under every latency), and how long the
	// alert log takes to read, in process and over HTTP.
	last := w.profiles[len(w.profiles)-1].ID
	var flushMs []float64
	for i := 0; i < 50; i++ {
		if err := w.c.Router.Send(ctx, probeEvent(last)); err != nil {
			return err
		}
		t0 := time.Now()
		if err := w.c.Router.Flush(ctx); err != nil {
			return err
		}
		flushMs = append(flushMs, float64(time.Since(t0))/1e6)
	}
	layer["cluster.router_flush_ms"] = median(flushMs)
	if err := w.c.Quiesce(ctx); err != nil {
		return err
	}
	owner := w.fleet.node(ring.Owner(w.in.ids[0]))
	layer["runtime.alerts_read_ms"], err = timeMedianMs(3, func() error { owner.Monitor().Alerts(); return nil })
	if err != nil {
		return err
	}
	client := &http.Client{Transport: cluster.H2CTransport()}
	defer client.CloseIdleConnections()
	layer["cluster.alerts_http_ms"], err = timeMedianMs(3, func() error {
		resp, err := client.Get(w.c.Servers[0].URL() + "/alerts")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET /alerts answered %s", resp.Status)
		}
		return nil
	})
	return err
}
