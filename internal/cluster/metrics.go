package cluster

import (
	"fmt"
	"net/http"
	"strings"
)

// handleMetrics renders the node's counters in the Prometheus text
// exposition format (hand-rolled on the stdlib: the format is plain text and
// a client dependency for a fleet-internal scrape endpoint is not worth it).
// Counter names follow the prometheus conventions: _total suffix on
// monotonic counters, plain gauges for instantaneous values, the node name as
// a label so a fleet-wide scrape aggregates with sum by ().
func (n *Node) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s := n.Stats()
	var b strings.Builder
	label := fmt.Sprintf("{node=%q}", n.name)
	metric := func(name, help, typ string, value int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n%s%s %d\n", name, help, name, typ, name, label, value)
	}
	metric("privascope_node_frames_total", "Event frames applied by the ingest endpoint.", "counter", s.Frames)
	metric("privascope_node_decode_errors_total", "Malformed frames rejected with 400.", "counter", s.DecodeErrors)
	metric("privascope_node_deduped_frames_total", "Retried frames skipped by stream-offset deduplication.", "counter", s.DedupedFrames)
	metric("privascope_node_queue_depth", "Events of decoded frames waiting for or running their apply.", "gauge", s.QueueDepth)
	metric("privascope_node_handoff_in_users_total", "User snapshots imported through /handoff.", "counter", s.HandoffInUsers)
	metric("privascope_node_handoff_out_users_total", "User snapshots exported off this node by membership changes.", "counter", s.HandoffOutUsers)
	metric("privascope_node_failover_in_users_total", "Imported snapshots whose previous owner was evicted as dead.", "counter", s.FailoverInUsers)
	ready := int64(0)
	if s.Ready {
		ready = 1
	}
	metric("privascope_node_ready", "Readiness: 0 while draining or receiving a handoff.", "gauge", ready)
	metric("privascope_node_ingested_events_total", "Events applied to the monitor.", "counter", int64(s.Ingest.Events))
	metric("privascope_node_matched_events_total", "Applied events that advanced a model cursor.", "counter", int64(s.Ingest.Matched))
	metric("privascope_node_unregistered_events_total", "Applied events naming an unregistered user.", "counter", int64(s.Ingest.Unregistered))
	metric("privascope_node_alert_log_records", "Alerts the monitor's log holds.", "gauge", s.AlertRecords)
	metric("privascope_node_alert_event_shapes", "Distinct event shapes the logged alerts share.", "gauge", s.AlertShapes)
	fmt.Fprintf(&b, "# HELP privascope_node_alerts_total Alerts raised, by kind.\n# TYPE privascope_node_alerts_total counter\n")
	for _, kv := range []struct {
		kind string
		v    int
	}{
		{"risk", s.Ingest.RiskAlerts},
		{"unmodelled-behaviour", s.Ingest.Unmodelled},
		{"denied-operation", s.Ingest.Denied},
	} {
		fmt.Fprintf(&b, "privascope_node_alerts_total{node=%q,kind=%q} %d\n", n.name, kv.kind, kv.v)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}
