package main

// metricDef names one reported metric. BENCHMARK.json lists the same names,
// units and directions (bench_test.go holds the two together) and adds the
// regression bounds; moves records the prediction written down before any
// measurement: which end-to-end metric the layer metric should move, where.
type metricDef struct {
	name, unit, better string
	moves              string
}

var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", ""},
	{"train_samples_per_s", "samples/s", "higher", ""},
	{"step_ms_p50", "ms", "lower", ""},
	{"serve_capacity_rps", "req/s", "higher", ""},
	{"serve_ms_p50", "ms", "lower", ""},
	{"serve_within_slo_share", "share", "higher", ""},
	{"live_heap_mb", "MB", "lower", ""},
}

var perLayerMetrics = []metricDef{
	{"data.gen_ms_per_batch", "ms", "lower", "setup_s, all"},

	{"accel.classify_us_per_step", "us", "lower", "step_ms_p50 on sparse-inproc"},
	{"accel.learn_us_per_step", "us", "lower", "step_ms_p50 on sparse-inproc"},
	{"accel.popular_share", "share", "higher", "train_samples_per_s on fabric-unix (fewer fabric rows)"},

	{"embedding.forward_us_per_step", "us", "lower", "step_ms_p50 on sparse-inproc; none on dense-local"},
	{"embedding.backward_us_per_step", "us", "lower", "step_ms_p50 on sparse-inproc; none on dense-local"},
	{"embedding.sparse_update_us_per_step", "us", "lower", "step_ms_p50 on sparse-inproc; none on dense-local"},
	{"embedding.prefetch_us_per_step", "us", "lower", "step_ms_p50 on sparse-inproc; none on dense-local"},
	{"embedding.lookups_per_step", "count", "lower", "step_ms_p50 on sparse-inproc; none on dense-local"},

	{"nn.dense_us_per_step", "us", "lower", "step_ms_p50 on dense-local"},
	{"train.step_ms_p99", "ms", "lower", "train_samples_per_s, all"},
	{"train.allocs_per_step", "count", "lower", "train_samples_per_s, all"},
	{"train.bytes_per_step", "B", "lower", "train_samples_per_s, all"},

	{"shard.cache_hit_share", "share", "higher", "train_samples_per_s on fabric-unix"},
	{"shard.local_share", "share", "higher", "train_samples_per_s on fabric-unix"},
	{"shard.quant_hit_share", "share", "higher", "train_samples_per_s on fabric-unix"},
	{"shard.dequant_rows_per_step", "count", "lower", "train_samples_per_s on fabric-unix"},
	{"shard.gather_rows_per_step", "count", "lower", "train_samples_per_s on fabric-unix"},
	{"shard.gather_kb_per_step", "KB", "lower", "train_samples_per_s on fabric-unix"},
	{"shard.scatter_kb_per_step", "KB", "lower", "train_samples_per_s on fabric-unix"},
	{"shard.fill_kb_per_step", "KB", "lower", "train_samples_per_s on fabric-unix"},
	{"shard.evictions_per_step", "count", "lower", "train_samples_per_s on fabric-unix"},
	{"shard.repair_rows_per_step", "count", "lower", "train_samples_per_s on fabric-unix"},

	{"shard.gather_wall_us_per_step", "us", "lower", "step_ms_p50 on fabric-unix; ~0 on sparse-inproc"},
	{"shard.scatter_wall_us_per_step", "us", "lower", "step_ms_p50 on fabric-unix; 0 on sparse-inproc"},
	{"shard.gather_busy_us_per_step", "us", "lower", "step_ms_p50 on fabric-unix; ~0 on sparse-inproc"},
	{"shard.exposed_gather_us_per_step", "us", "lower", "step_ms_p50 on fabric-unix; ~0 on sparse-inproc"},
	{"shard.exposed_share", "share", "lower", "step_ms_p50 on fabric-unix"},
	{"shard.prefetch_window_share", "share", "higher", "step_ms_p50 on fabric-unix"},

	{"shard.fetch_calls_per_step", "count", "lower", "step_ms_p50, train_samples_per_s on fabric-unix only"},
	{"shard.push_calls_per_step", "count", "lower", "step_ms_p50, train_samples_per_s on fabric-unix only"},
	{"shard.fetch_us_per_call_p50", "us", "lower", "step_ms_p50, train_samples_per_s on fabric-unix only"},
	{"shard.push_us_per_call_p50", "us", "lower", "step_ms_p50, train_samples_per_s on fabric-unix only"},
	{"shard.wire_frames_per_step", "count", "lower", "step_ms_p50, train_samples_per_s on fabric-unix only"},
	{"shard.wire_tx_kb_per_step", "KB", "lower", "step_ms_p50, train_samples_per_s on fabric-unix only"},
	{"shard.wire_rx_kb_per_step", "KB", "lower", "step_ms_p50, train_samples_per_s on fabric-unix only"},
	{"shard.wire_write_us_per_step", "us", "lower", "step_ms_p50, train_samples_per_s on fabric-unix only"},
	{"shard.wire_read_wait_us_per_step", "us", "lower", "step_ms_p50, train_samples_per_s on fabric-unix only"},
	{"shard.fabric_errors", "count", "lower", "ops_failed on fabric-unix only"},
	{"shard.redials", "count", "lower", "step_ms_p50 on fabric-unix only"},
	{"shard.fabric_step_overhead_share", "share", "lower", "step_ms_p50, train_samples_per_s on fabric-unix only"},

	{"serve.predict_us_p50", "us", "lower", "serve_capacity_rps, serve_ms_p50 on serve-mixed"},
	{"serve.train_block_us_p50", "us", "lower", "serve_ms_p50 on serve-mixed (a faster train step lowers it)"},
	{"serve.latency_ms_p90", "ms", "lower", "serve_within_slo_share on serve-mixed"},
	{"serve.latency_ms_p99", "ms", "lower", "serve_within_slo_share on serve-mixed"},
	{"serve.late_start_ms_p99", "ms", "lower", "none: how late the load generator ran"},
	{"serve.cache_hit_share", "share", "higher", "serve_capacity_rps on serve-mixed"},
	{"serve.gather_kb_per_request", "KB", "lower", "serve_capacity_rps on serve-mixed"},
	{"serve.stale_rows", "count", "lower", "none: degraded answers, 0 on a healthy fabric"},

	{"trace.overhead_share", "share", "lower", "none: traced / untraced step_ms_p50 - 1"},
}

// exactCounts are the per-layer metrics that are pure counts of the
// single-goroutine training window: they repeat exactly for a seed on the
// three training workloads (serve-mixed trains beside real-time request
// traffic, so its step count varies). The wire counts are not among them: the
// last step's lookahead fetch is still in flight on a drainer when the window
// closes.
var exactCounts = []string{
	"accel.popular_share", "embedding.lookups_per_step",
	"shard.cache_hit_share", "shard.local_share", "shard.quant_hit_share",
	"shard.dequant_rows_per_step", "shard.gather_rows_per_step", "shard.gather_kb_per_step",
	"shard.scatter_kb_per_step", "shard.fill_kb_per_step", "shard.evictions_per_step",
	"shard.repair_rows_per_step",
	"shard.fabric_errors", "shard.redials", "serve.stale_rows",
}
