package main

// metrics.go names every metric the benchmark reports. BENCHMARK.json at the
// repo root repeats these tables for the driver; smoke_test.go checks that
// the two agree.

// metricDef describes one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed worsening as a share of the parent's median
}

// endToEnd lists the user-visible metrics. Every workload reports all of
// them (each workload carries a submit stream so that none is ever zero); the
// trailing comment names the workloads a metric is meant to be read on.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},                  // all
	{"submit_p50_ms", "ms", "lower", 0.25},           // submit_steady, burst_local (64-VM batch), monitor_storm (probe), read_mix (beside reads)
	{"cpu_ms_per_placement", "ms", "lower", 0.25},    // submit_steady, burst_local
	{"allocs_per_placement", "count", "lower", 0.10}, // submit_steady, burst_local
	{"mgmt_cpu_cores", "cores", "lower", 0.25},       // monitor_storm, read_mix
	{"allocs_per_report", "count", "lower", 0.15},    // monitor_storm
	{"peak_rss_mb", "MiB", "lower", 0.25},            // all
}

// perLayer lists the single-layer metrics (layer = package name). They come
// from three sources: isolated calls into public functions (layers.go),
// counters read around the workload, and the traced run's spans.
var perLayer = []metricDef{
	// api (server + client)
	{Name: "api.submit_stub_us", Unit: "us", Better: "lower"},
	{Name: "api.list2048_stub_us", Unit: "us", Better: "lower"},
	{Name: "api.server_self_us", Unit: "us", Better: "lower"},
	// livebackend
	{Name: "livebackend.submit_self_us", Unit: "us", Better: "lower"},
	{Name: "livebackend.inventory2048_us", Unit: "us", Better: "lower"},
	{Name: "livebackend.gl_discover_us", Unit: "us", Better: "lower"},
	// rest
	{Name: "rest.call_us", Unit: "us", Better: "lower"},
	{Name: "rest.forward_us", Unit: "us", Better: "lower"},
	{Name: "rest.server_self_us", Unit: "us", Better: "lower"},
	{Name: "rest.http_reqs_per_placement", Unit: "count", Better: "lower"},
	{Name: "rest.bytes_per_placement", Unit: "bytes", Better: "lower"},
	{Name: "rest.bytes_per_report", Unit: "bytes", Better: "lower"},
	// protocol
	{Name: "protocol.encode_us.monitor16", Unit: "us", Better: "lower"},
	{Name: "protocol.decode_us.monitor16", Unit: "us", Better: "lower"},
	{Name: "protocol.encode_us.startvm", Unit: "us", Better: "lower"},
	{Name: "protocol.decode_us.startvm", Unit: "us", Better: "lower"},
	{Name: "protocol.encode_us.place1", Unit: "us", Better: "lower"},
	{Name: "protocol.decode_us.place1", Unit: "us", Better: "lower"},
	{Name: "protocol.encode_us.submit1", Unit: "us", Better: "lower"},
	{Name: "protocol.decode_us.submit1", Unit: "us", Better: "lower"},
	{Name: "protocol.encode_us.inventory1024", Unit: "us", Better: "lower"},
	{Name: "protocol.decode_us.inventory1024", Unit: "us", Better: "lower"},
	{Name: "protocol.allocs.monitor16", Unit: "count", Better: "lower"},
	// transport
	{Name: "transport.call_us", Unit: "us", Better: "lower"},
	{Name: "transport.msgs_per_placement", Unit: "count", Better: "lower"},
	{Name: "transport.dropped", Unit: "count", Better: "lower"},
	// simkernel
	{Name: "simkernel.after0_us", Unit: "us", Better: "lower"},
	// hierarchy
	{Name: "hierarchy.gl_submit1_us", Unit: "us", Better: "lower"},
	{Name: "hierarchy.gm_place1_us", Unit: "us", Better: "lower"},
	{Name: "hierarchy.gm_place64_us", Unit: "us", Better: "lower"},
	{Name: "hierarchy.lc_start_us", Unit: "us", Better: "lower"},
	{Name: "hierarchy.gm_inventory1024_us", Unit: "us", Better: "lower"},
	{Name: "hierarchy.gl_topology_us", Unit: "us", Better: "lower"},
	{Name: "hierarchy.monitor_ingest_us", Unit: "us", Better: "lower"},
	{Name: "hierarchy.dispatch_span_us", Unit: "us", Better: "lower"},
	{Name: "hierarchy.placement_span_us", Unit: "us", Better: "lower"},
	{Name: "hierarchy.place_failed", Unit: "count", Better: "lower"},
	{Name: "hierarchy.dispatch_exhausted", Unit: "count", Better: "lower"},
	{Name: "hierarchy.migrations_failed", Unit: "count", Better: "lower"},
	{Name: "hierarchy.view_memo_hit_ratio", Unit: "ratio", Better: "higher"},
	// scheduling
	{Name: "scheduling.place64_us", Unit: "us", Better: "lower"},
	{Name: "scheduling.dispatch2_us", Unit: "us", Better: "lower"},
	{Name: "scheduling.place_self_us", Unit: "us", Better: "lower"},
	// view
	{Name: "view.nodes64_us", Unit: "us", Better: "lower"},
	{Name: "view.groups2_us", Unit: "us", Better: "lower"},
	// telemetry
	{Name: "telemetry.append_ns", Unit: "ns", Better: "lower"},
	{Name: "telemetry.record_node_us", Unit: "us", Better: "lower"},
	{Name: "telemetry.record_vm_us", Unit: "us", Better: "lower"},
	{Name: "telemetry.reduce_us", Unit: "us", Better: "lower"},
	{Name: "telemetry.query_us", Unit: "us", Better: "lower"},
	{Name: "telemetry.samples_per_s", Unit: "1/s", Better: "higher"},
	{Name: "telemetry.series_end", Unit: "count", Better: "lower"},
	// sketch
	{Name: "sketch.insert_ns", Unit: "ns", Better: "lower"},
	// obs
	{Name: "obs.span8_us", Unit: "us", Better: "lower"},
	{Name: "obs.spans_per_placement", Unit: "count", Better: "lower"},
	// metrics
	{Name: "metrics.inc_ns", Unit: "ns", Better: "lower"},
	{Name: "metrics.observe_ns", Unit: "ns", Better: "lower"},
	// hypervisor
	{Name: "hypervisor.startvm_us", Unit: "us", Better: "lower"},
	{Name: "hypervisor.status16_us", Unit: "us", Better: "lower"},
	// election (set-up)
	{Name: "election.gl_elected_ms", Unit: "ms", Better: "lower"},
	{Name: "election.all_joined_ms", Unit: "ms", Better: "lower"},
	{Name: "election.placeable_ms", Unit: "ms", Better: "lower"},
	// runtime
	{Name: "runtime.gc_pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.heap_inuse_mb", Unit: "MiB", Better: "lower"},
	{Name: "runtime.goroutines_end", Unit: "count", Better: "lower"},
	{Name: "runtime.cpu_cores", Unit: "cores", Better: "lower"},
	{Name: "runtime.ref_kernel_us", Unit: "us", Better: "lower"},
	// loadgen (validity of the run itself)
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.backlog_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.submit_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.submit_p75_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.submit_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.submit_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.submit_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.submit_max_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.over_10ms_share", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.samples", Unit: "count", Better: "higher"},
	{Name: "loadgen.placements_per_s", Unit: "1/s", Better: "higher"},
	{Name: "loadgen.reads_per_s", Unit: "1/s", Better: "higher"},
	{Name: "loadgen.series_query_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.list_vms_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.list_nodes_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.topology_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.get_vm_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}
