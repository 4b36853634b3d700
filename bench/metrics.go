package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// names and units, with direction and bound; a test holds the two equal.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the platform would see, measured
// with tracing off and reported by every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_ops_s", "ops/s"},
	{"latency_p50_us", "us"},
	{"overhead_p50_us", "us"},
	{"allocs_per_op", "count"},
	{"alloc_bytes_per_op", "B"},
}

// everyRun are the per-layer metrics the untraced run can also print:
// the load generator's own health, process-wide runtime figures and the
// modeled share of wall time.
var everyRun = []metricDef{
	{"loadgen.attempted", "count"},
	{"loadgen.succeeded", "count"},
	{"loadgen.shed", "count"},
	{"loadgen.failed_untyped", "count"},
	{"loadgen.failed_share", "ratio"},
	{"loadgen.slo_miss_share", "ratio"},
	{"loadgen.sched_lag_p99_us", "us"},
	{"loadgen.outstanding_max", "count"},
	{"loadgen.throughput_ops_s", "ops/s"},
	{"loadgen.latency_p50_us", "us"},
	{"loadgen.latency_p99_us", "us"},
	{"loadgen.latency_p99w_us", "us"},
	{"loadgen.latency_p999_us", "us"},
	{"loadgen.p50_us.4k", "us"},
	{"loadgen.p50_us.64k", "us"},
	{"loadgen.p50_us.1m", "us"},
	{"loadgen.payload_mb_s", "MB/s"},
	{"proc.cpu_us_per_op", "us"},
	{"proc.mutex_wait_us_per_op", "us"},
	{"proc.gc_pause_ms_per_s", "ms/s"},
	{"proc.gc_cycles", "count"},
	{"proc.goroutines_peak", "count"},
	{"proc.rss_peak_mb", "MB"},
	{"model.share_of_wall", "ratio"},
	{"model.modeled_p50_ms", "ms"},
}

// tracedOnly are the per-layer metrics that need the traced pass: spans,
// server counters and the layer ladder.
var tracedOnly = []metricDef{
	{"wire.encode_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"wire.allocs_per_msg", "count"},
	{"wire.header_bytes", "B"},
	{"wire.frame_bytes", "B"},
	{"client.self_us", "us"},
	{"client.invoke_unloaded_us", "us"},
	{"client.list_rtt_us", "us"},
	{"client.attempts_per_op", "count"},
	{"client.retries", "count"},
	{"client.stale_conns", "count"},
	{"core.invoke_inproc_us", "us"},
	{"core.invoke_inproc_allocs", "count"},
	{"core.resident_us", "us"},
	{"core.self_us", "us"},
	{"core.queue_wait_modeled_ms", "ms"},
	{"core.cold_share", "ratio"},
	{"core.cached_cold_share", "ratio"},
	{"core.evictions", "count"},
	{"core.shed_share", "ratio"},
	{"core.aggressor_shed_share", "ratio"},
	{"core.batch_dispatches", "count"},
	{"core.batch_size_mean", "count"},
	{"core.lease_grants", "count"},
	{"core.lease_reuses", "count"},
	{"core.oob_bytes", "B"},
	{"core.inband_bytes", "B"},
	{"shm.acquire_release_ns", "ns"},
	{"shm.slab_reuse_share", "ratio"},
	{"shm.registry_create_get_delete_ns", "ns"},
	{"accel.exec_wall_us", "us"},
	{"accel.exec_modeled_us", "us"},
	{"accel.wall_over_model_us", "us"},
	{"accel.acquire_wall_us", "us"},
	{"vclock.sleep_overshoot_us", "us"},
	{"vclock.afterfunc_late_us", "us"},
	{"artifact.lookup_ns", "ns"},
	{"artifact.hit_share", "ratio"},
	{"breaker.allow_record_ns", "ns"},
	{"kernels.cost_ns", "ns"},
	{"kernels.execute_ns", "ns"},
	{"metrics.observe_ns", "ns"},
	{"metrics.write_prometheus_us", "us"},
	{"cplane.route_self_us", "us"},
	{"cplane.dispatches", "count"},
	{"cplane.redispatches", "count"},
	{"cplane.unroutable", "count"},
	{"cplane.members_alive", "count"},
	{"trace.overhead_share", "ratio"},
	{"trace.unattributed_share", "ratio"},
}

// perLayer is everything the traced pass reports.
func perLayer() []metricDef {
	return append(append([]metricDef{}, everyRun...), tracedOnly...)
}
