package main

// metricDef names one metric of the benchmark. The lists below are the
// program's side of BENCHMARK.json (a test keeps the two equal):
// an untraced run reports every end-to-end metric, a traced run every
// per-layer metric. A layer a workload does not have reports 0.
type metricDef struct {
	name   string
	unit   string
	higher bool    // higher is better
	bound  float64 // end-to-end only: share of the baseline median it may worsen
}

var endToEnd = []metricDef{
	{"pkt_per_s", "pkt/s", true, 0.20},
	{"lat_p50_us", "us", false, 0.25},
	{"macro_f1", "ratio", true, 0.05},
	{"setup_s", "s", false, 0.25},
}

var perLayer = []metricDef{
	// trafficgen: load generation. Must stay a few percent of the
	// per-packet cost; moves nothing end to end.
	{name: "trafficgen.fill_ns_per_pkt", unit: "ns/pkt"},

	// pisa.plan (and its oracle, pisa.interp): table lookups, gates,
	// register RMWs on one goroutine with no engine around them.
	{name: "pisa.interp.ns_per_pkt", unit: "ns/pkt"},
	{name: "pisa.plan.ns_per_pkt", unit: "ns/pkt"},
	{name: "pisa.plan.ext_ns_per_pkt", unit: "ns/pkt"},
	{name: "pisa.plan.compile_ms", unit: "ms"},
	{name: "pisa.plan.tables_per_pkt", unit: "count"},
	{name: "pisa.plan.tables_exact", unit: "count"},
	{name: "pisa.plan.tables_ternary", unit: "count"},
	{name: "pisa.plan.tables_always", unit: "count"},

	// pisa.engine: shard by flow hash, staging, result assembly.
	{name: "pisa.engine.inline_ns_per_pkt", unit: "ns/pkt"},
	{name: "pisa.engine.self_ns_per_pkt", unit: "ns/pkt"},
	{name: "pisa.engine.allocs_per_batch.sat", unit: "count"},
	{name: "pisa.engine.allocs_per_batch.paced", unit: "count"},
	{name: "pisa.engine.alloc_b_per_pkt.sat", unit: "B/pkt"},
	{name: "pisa.engine.alloc_b_per_pkt.paced", unit: "B/pkt"},
	{name: "pisa.engine.heap_live_mib", unit: "MiB"},
	{name: "pisa.engine.rmws_per_pkt", unit: "count", higher: false},
	{name: "pisa.engine.fires_per_pkt", unit: "count", higher: true},

	// pisa.sched: per-(session, worker) mailboxes, wake/park.
	{name: "pisa.sched.roundtrip_us", unit: "us"},
	{name: "pisa.sched.mean_wait_us.sat", unit: "us"},
	{name: "pisa.sched.mean_wait_us.paced", unit: "us"},
	{name: "pisa.sched.wait_lt50us_share.sat", unit: "ratio", higher: true},
	{name: "pisa.sched.wait_lt50us_share.paced", unit: "ratio", higher: true},
	{name: "pisa.sched.depth0_share.sat", unit: "ratio", higher: true},
	{name: "pisa.sched.depth0_share.paced", unit: "ratio", higher: true},
	{name: "pisa.sched.tasks_per_batch.sat", unit: "count"},
	{name: "pisa.sched.tasks_per_batch.paced", unit: "count"},
	{name: "pisa.sched.parallelism.sat", unit: "ratio", higher: true},
	{name: "pisa.sched.parallelism.paced", unit: "ratio", higher: true},
	{name: "pisa.sched.shed_pkts", unit: "count"},

	// pisa.fanout: shared extraction machine → subscribers (shared-3).
	{name: "pisa.fanout.ext_only_ns_per_pkt", unit: "ns/pkt"},
	{name: "pisa.fanout.self_ns_per_pkt", unit: "ns/pkt"},
	{name: "pisa.fanout.allocs_per_batch", unit: "count"},
	{name: "pisa.fanout.windows_per_pkt", unit: "count"},

	// serve: admission, submit lock, swap, snapshot (serve-mix).
	{name: "serve.run_self_us_per_batch", unit: "us"},
	{name: "serve.register_us", unit: "us"},
	{name: "serve.snapshot_us", unit: "us"},
	{name: "serve.swap_downtime_us", unit: "us"},
	{name: "serve.swap_total_ms", unit: "ms"},

	// Set-up layers: models/nn (train), core (+fuzzy: passes, emit,
	// resource accounting). The core.emit.* counts are exact.
	{name: "models.train_s", unit: "s"},
	{name: "core.compile_s", unit: "s"},
	{name: "core.pass.lower_ms", unit: "ms"},
	{name: "core.pass.fuse_ms", unit: "ms"},
	{name: "core.pass.build-tables_ms", unit: "ms"},
	{name: "core.emit_ms", unit: "ms"},
	{name: "core.emit.stages", unit: "count"},
	{name: "core.emit.sram_kib", unit: "KiB"},
	{name: "core.emit.tcam_kib", unit: "KiB"},
	{name: "core.emit.reg_kib", unit: "KiB"},
	{name: "core.emit.phv_bits", unit: "bits"},
	{name: "core.host_classify_ns", unit: "ns"},

	// Validity of the run itself, not the program.
	{name: "driver.late_share", unit: "ratio"},
	{name: "driver.lat_p90_us", unit: "us"},
	{name: "driver.lat_p99_us", unit: "us"},
	{name: "driver.lat_p999_us", unit: "us"},
	{name: "trace.overhead_share", unit: "ratio"},
	{name: "trace.ladder_closure", unit: "ratio"},
	// Span self times of the traced replay, per batch.
	{name: "trace.fill_self_us.sat", unit: "us"},
	{name: "trace.run_self_us.sat", unit: "us"},
	{name: "trace.fill_self_us.paced", unit: "us"},
	{name: "trace.pace_self_us.paced", unit: "us"},
	{name: "trace.run_self_us.paced", unit: "us"},
}
