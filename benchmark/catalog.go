package main

// metricDef names one metric of the benchmark. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees. Every workload reports
// every one of them; what an "operation" and a "unit of work" are is fixed
// per workload (see workloads below and the README).
var endToEnd = []metricDef{
	{"op_p50_ms", "ms", "lower", 0.25},
	{"work_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// assessClasses are the six model documents of an assessment cycle, in the
// order a cycle takes them.
var assessClasses = []string{"xl", "large", "large_policy_edit", "large_meta_edit", "symmetric", "surgery"}

// perLayer are the metrics of single layers, named <module>.<metric>. A
// traced run reports all of them; a layer that is not on the workload's path
// reads 0, which is the "bypassed" half of every prediction in the README's
// interaction table.
var perLayer = func() []metricDef {
	ms := func(names ...string) (out []metricDef) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: "ms", Better: "lower"})
		}
		return out
	}
	ns := func(names ...string) (out []metricDef) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: "ns", Better: "lower"})
		}
		return out
	}
	count := func(better string, names ...string) (out []metricDef) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: "count", Better: better})
		}
		return out
	}
	var all []metricDef
	add := func(defs ...metricDef) { all = append(all, defs...) }

	add(ms("dataflow.unmarshal_ms", "dataflow.fingerprint_ms",
		"core.generate_ms.xl", "core.generate_ms.large", "core.generate_ms.symmetric", "core.generate_ms.surgery")...)
	add(metricDef{Name: "core.states_per_s", Unit: "1/s", Better: "higher"})
	add(count("lower", "core.states", "core.transitions")...)
	add(ms("core.compile_view_ms", "lts.compile_ms",
		"core.generate_symmetry_ms", "core.regenerate_policy_ms", "core.regenerate_metadata_ms",
		"core.generate_workers1_ms", "explore.diff_ms",
		"modelstore.encode_ms", "modelstore.save_ms", "modelstore.decode_ms", "modelstore.load_ms")...)
	add(metricDef{Name: "modelstore.artifact_bytes", Unit: "B", Better: "lower"})
	add(ms("risk.analyze_ms.large", "risk.analyze_ms.medium")...)
	add(count("lower", "risk.findings")...)
	add(metricDef{Name: "risk.cache_hit_share", Unit: "ratio", Better: "higher"})
	add(count("lower", "risk.distinct_shapes")...)
	add(ms("report.build_ms", "report.render_ms")...)
	add(metricDef{Name: "report.bytes", Unit: "B", Better: "lower"})
	for _, class := range assessClasses {
		add(ms("engine.verdict_ms." + class)...)
	}
	add(count("lower", "engine.generations")...)
	add(count("higher", "engine.loads", "engine.incremental_hits")...)
	add(metricDef{Name: "engine.model_cache_hit_share", Unit: "ratio", Better: "higher"})
	add(ms("engine.unattributed_ms")...)

	add(ns("runtime.ingest_batch_ns_per_event", "runtime.register_user_ns",
		"runtime.export_user_ns", "runtime.import_user_ns")...)
	add(ms("runtime.alerts_read_ms")...)
	add(count("higher", "runtime.matched")...)
	add(count("lower", "runtime.unmodelled", "runtime.denied", "runtime.risk_alerts")...)

	add(ns("cluster.encode_frame_ns_per_event", "cluster.decode_frame_ns_per_event")...)
	add(metricDef{Name: "cluster.frame_bytes_per_event", Unit: "B", Better: "lower"})
	add(ns("cluster.node_ingest_ns_per_event", "cluster.router_send_ns_per_event",
		"cluster.transport_ns_per_event", "cluster.ring_owner_ns")...)
	add(metricDef{Name: "cluster.ring_skew", Unit: "ratio", Better: "lower"})
	add(count("lower", "cluster.queue_depth_max", "cluster.frames_sent")...)
	add(count("higher", "cluster.events_per_frame")...)
	add(count("lower", "cluster.rejected_429", "cluster.retries", "cluster.dropped_events",
		"cluster.deduped_frames")...)
	add(ms("cluster.router_flush_ms",
		"cluster.add_node_ms", "cluster.remove_node_ms", "cluster.evict_node_ms")...)
	add(count("lower", "cluster.users_moved")...)
	add(ms("cluster.send_stall_ms")...)
	add(ns("cluster.encode_handoff_ns_per_user", "cluster.decode_handoff_ns_per_user")...)
	add(metricDef{Name: "cluster.handoff_bytes_per_user", Unit: "B", Better: "lower"})
	add(count("lower", "cluster.rerouted_events")...)
	add(ns("cluster.register_ns_per_user")...)
	add(ms("cluster.alerts_http_ms")...)

	add(ms("bench.latency_p50_ms", "bench.latency_p90_ms", "bench.latency_p99_ms",
		"bench.generator_lag_max_ms")...)
	add(count("higher", "bench.probe_samples")...)
	add(count("lower", "bench.ops_stolen")...)
	add(metricDef{Name: "bench.cpu_steal_share", Unit: "ratio", Better: "lower"})
	add(metricDef{Name: "bench.trace_overhead_share", Unit: "ratio", Better: "lower"})
	return all
}()

// workloadDef is one set of inputs the benchmark runs; Why is recorded in
// BENCHMARK.json and the README.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	new  func() workload
}

var workloads = []workloadDef{
	{"assess_cold", "closed loop: fresh Engine takes six model documents (90k to 47 states) from JSON bytes to report text; the only workload where core/explore generation runs",
		func() workload { return &assessWorkload{} }},
	{"assess_warm", "the same cycle with every model loaded from a pre-filled modelstore registry; same outputs without generation, so a generation speed-up must not move it",
		func() workload { return &assessWorkload{warm: true} }},
	{"assess_population", "closed loop: 256 users of 32 unseen profile shapes on a pre-generated model; risk analysis and its shape cache do the work, core and modelstore none",
		func() workload { return &populationWorkload{} }},
	{"ingest_saturate", "closed loop: one sender pushes 32,768 users' scripts through Router, h2c and 2 nodes as fast as it goes; every ingest stage is CPU-bound, the throughput ceiling",
		func() workload { return &ingestWorkload{mode: modeSaturate} }},
	{"ingest_steady", "open loop at 50,000 events/s, far below saturation, probed every 5 ms per node; latency is the Router's cut/flush policy plus one h2c round trip, not apply speed",
		func() workload { return &ingestWorkload{mode: modeSteady} }},
	{"ingest_rebalance", "open loop at 16,000 events/s while nodes join, leave and are evicted; the cluster layer doing seal, handoff, ring swap and re-route beside reads",
		func() workload { return &ingestWorkload{mode: modeRebalance} }},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
