package main

// endToEnd lists the metrics a user of the system would see, measured only
// in the untraced pass. The lists here and in BENCHMARK.json must agree; a
// test checks that they do.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "sat_qps", Unit: "qps", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

func lower(name, unit string) metricDef  { return metricDef{Name: name, Unit: unit, Better: "lower"} }
func higher(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }

// perLayer lists the metrics of single layers, measured in the traced pass:
// first the ones the issue proposed as end-to-end that do not repeat on the
// reference host, then one block per package.
var perLayer = []metricDef{
	lower("p50_ms", "ms"),
	lower("p95_ms", "ms"),
	higher("sla_qps", "qps"),
	lower("fail_share", "ratio"),
	higher("sat_qps.raw", "qps"),

	higher("tensor.calib_scalar_gflops", "GFLOP/s"),
	higher("tensor.gemm_gflops.256", "GFLOP/s"),
	higher("tensor.gemm_gflops.rmc3", "GFLOP/s"),
	higher("tensor.gemm_gflops.ncf", "GFLOP/s"),
	higher("tensor.addto8_gbps", "GB/s"),

	lower("nn.embbag_ns_per_lookup.rmc1", "ns"),
	lower("nn.embbag_ns_per_lookup.rmc3", "ns"),
	lower("nn.embtable_ns_per_lookup.ncf", "ns"),
	lower("nn.mlp_us_per_item.rmc1_dense", "us"),
	lower("nn.mlp_us_per_item.rmc3_dense", "us"),
	lower("nn.mlp_us_per_item.ncf_predict", "us"),
	lower("nn.attention_us_per_item.din", "us"),
	lower("nn.gru_us_per_item.dien", "us"),

	lower("embstore.dense_row_ns", "ns"),
	lower("embstore.synth_row_ns", "ns"),
	lower("embstore.cached_row_ns.zipf", "ns"),
	higher("embstore.hit_rate.zipf", "ratio"),
	lower("embstore.cached_row_ns.uniform", "ns"),
	higher("embstore.hit_rate.uniform", "ratio"),

	lower("model.build_s.rmc1", "s"),
	lower("model.build_s.rmc3", "s"),
	lower("model.build_s.ncf", "s"),
	lower("model.fwd_us_per_item.rmc1.b256", "us"),
	lower("model.fwd_us_per_item.rmc2.b256", "us"),
	lower("model.fwd_us_per_item.rmc3.b256", "us"),
	lower("model.fwd_us_per_item.ncf.b256", "us"),
	lower("model.fwd_us_per_item.wnd.b256", "us"),
	lower("model.fwd_us_per_item.mtwnd.b256", "us"),
	lower("model.fwd_us_per_item.din.b256", "us"),
	lower("model.fwd_us_per_item.dien.b256", "us"),
	lower("model.fwd_us_per_item.rmc1.b16", "us"),
	lower("model.fwd_us_per_item.rmc3.b16", "us"),
	lower("model.fwd_us_per_item.ncf.b16", "us"),
	lower("model.newinput_us_per_item.rmc1", "us"),
	lower("model.newinput_us_per_item.rmc3", "us"),
	lower("model.newinput_us_per_item.ncf", "us"),
	lower("model.rank_us.top10_of_256", "us"),
	lower("model.fwd_allocs", "count"),
	higher("model.split_speedup.b1024", "ratio"),

	lower("live.submit_floor_us", "us"),
	lower("live.allocs_per_query", "count"),
	lower("live.q1000_ms.b256", "ms"),
	lower("live.q1000_ms.b1024", "ms"),
	lower("live.stats_call_us", "us"),
	lower("live.submit_ms.p50", "ms"),
	lower("live.submit_ms.p95", "ms"),
	lower("live.chunks_per_query", "count"),
	higher("live.items_per_s", "1/s"),
	higher("live.submitted", "count"),
	higher("live.completed", "count"),
	lower("live.not_completed", "count"),
	higher("live.identity_ok", "count"),

	lower("stats.window_add_ns", "ns"),
	lower("stats.window_p95_us.4096", "us"),

	lower("fleet.self_us.p50", "us"),
	lower("fleet.self_us.p95", "us"),
	lower("fleet.route_imbalance", "ratio"),
	lower("fleet.stats_call_us", "us"),
	lower("fleet.retried", "count"),
	higher("fleet.identity_ok", "count"),

	lower("rpc.rtt_ms.p50", "ms"),
	lower("rpc.rtt_ms.p95", "ms"),
	lower("rpc.client_self_us.p50", "us"),
	lower("rpc.server_self_us.p50", "us"),
	lower("rpc.encode_us", "us"),
	lower("rpc.decode_us", "us"),
	lower("rpc.req_bytes", "count"),
	lower("rpc.resp_bytes.top10", "count"),
	lower("rpc.allocs_per_request", "count"),
	lower("rpc.attempts_per_request", "count"),
	lower("rpc.connect_errors", "count"),
	lower("rpc.server_non200", "count"),

	lower("workload.gen_ns_per_query", "ns"),
	higher("serving.run_kqps", "1/s"),
	lower("serving.maxqps_ms", "ms"),
	lower("sched.tune_ms.rmc1_gpu", "ms"),
	lower("sched.tune_evals.rmc1_gpu", "count"),
	lower("serving.engine_calls_per_tune", "count"),
	higher("sim.events_per_s", "1/s"),
	lower("platform.request_time_ns", "ns"),

	higher("bench.host_speed", "ratio"),
	lower("bench.steal_pct", "%"),
	lower("bench.gen_lag_ms.p95", "ms"),
	lower("bench.calib_drift_pct", "%"),
	lower("bench.window_spread_pct", "%"),
	lower("bench.trace_overhead_pct", "%"),
}
