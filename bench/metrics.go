package main

// metricDef names one reported number. BENCHMARK.json lists the same names,
// units, directions and bounds; TestBenchmarkJSONMatches keeps the two in
// step.
type metricDef struct {
	name   string
	unit   string
	higher bool    // higher is better
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the numbers a user of the system sees. Every workload
// reports all of them (README, "End-to-end metrics"). Bounds: everything
// timed gets the widest bound the contract allows, three to four times the
// spread between runs on the reference box in its quiet minutes (README,
// "Noise"); the live heap and the bytes on disk are functions of the input
// and get 5 % and 1 %.
var endToEnd = []metricDef{
	{"setup_s", "s", false, 0.25},
	{"records_per_s", "1/s", true, 0.25},
	{"cpu_us_per_record", "us", false, 0.25},
	{"live_heap_mb", "MB", false, 0.05},
	{"disk_bytes_per_trip", "B", false, 0.01},
	{"freshness_p50_ms", "ms", false, 0.25},
	{"freshness_tail_ms", "ms", false, 0.25},
	{"ops_per_s", "1/s", true, 0.25},
	{"reopen_s", "s", false, 0.25},
}

// perLayer are the ledger rows of the traced run, layer by layer; the
// prefix is the package the time was spent in. None is gated. The first
// three are ISSUE 15's other end-to-end metrics of the dashboard script:
// they could not hold a bound (README, "Noise") and were demoted as the
// issue prescribes, under their own names.
var perLayer = []metricDef{
	{"cpu_us_per_op", "us", false, 0},
	{"insert_p50_us", "us", false, 0},
	{"query_p50_us", "us", false, 0},

	{"position.csv_ns_per_record", "ns", false, 0},
	{"position.csv_alloc_b_per_record", "B", false, 0},
	{"position.jsonl_ns_per_record", "ns", false, 0},

	{"intern.hit_ns_per_lookup", "ns", false, 0},
	{"intern.miss_ns_per_insert", "ns", false, 0},

	{"cleaning.batch_ns_per_record", "ns", false, 0},
	{"cleaning.incr_short_ns_per_record", "ns", false, 0},
	{"cleaning.incr_long_ns_per_record", "ns", false, 0},
	{"cleaning.repaired_per_krecord", "count", false, 0},

	{"annotation.split_ns_per_record", "ns", false, 0},
	{"annotation.batch_ns_per_record", "ns", false, 0},
	{"annotation.identify_ns_per_snippet", "ns", false, 0},
	{"annotation.snippets_per_krecord", "count", false, 0},
	{"annotation.incr_short_ns_per_record", "ns", false, 0},
	{"annotation.incr_long_ns_per_record", "ns", false, 0},

	{"complement.knowledge_ns_per_trip", "ns", false, 0},
	{"complement.infer_ns_per_trip", "ns", false, 0},
	{"complement.inferred_per_ktrip", "count", false, 0},

	{"core.translate_w1_ns_per_record", "ns", false, 0},
	{"core.translate_wp_ns_per_record", "ns", false, 0},
	{"core.layer_sum_residual_pct", "%", false, 0},

	{"online.ingest_call_ns_per_record", "ns", false, 0},
	{"online.driver_blocked_pct", "%", false, 0},
	{"online.inbox_depth_p50", "count", false, 0},
	{"online.inbox_depth_max", "count", false, 0},
	{"online.new_session_ns", "ns", false, 0},
	{"online.flush_clean_ns_per_record", "ns", false, 0},
	{"online.flush_annotate_ns_per_record", "ns", false, 0},
	{"online.flush_seal_ns_per_record", "ns", false, 0},
	{"online.seal_self_ns_per_record", "ns", false, 0},
	{"online.flushes_per_krecord", "count", false, 0},
	{"online.incremental_flush_ratio", "ratio", true, 0},
	{"online.trims_per_ktrip", "count", false, 0},
	{"online.late_records", "count", false, 0},
	{"online.duplicate_records", "count", false, 0},

	{"tripstore.append_self_ns_per_trip", "ns", false, 0},
	{"tripstore.ingest_result_ns_per_trip", "ns", false, 0},
	{"tripstore.insert_p99_us", "us", false, 0},
	{"tripstore.query_device_p50_us", "us", false, 0},
	{"tripstore.query_device_p99_us", "us", false, 0},
	{"tripstore.query_region_p50_us", "us", false, 0},
	{"tripstore.query_region_p99_us", "us", false, 0},
	{"tripstore.query_range_p50_us", "us", false, 0},
	{"tripstore.query_range_p99_us", "us", false, 0},
	{"tripstore.scanned_per_row", "ratio", false, 0},
	{"tripstore.segment_write_p50_ms", "ms", false, 0},
	{"tripstore.flush_ms", "ms", false, 0},
	{"tripstore.snapshot_write_ms", "ms", false, 0},
	{"tripstore.replay_ms", "ms", false, 0},

	{"storage.put_us_per_kb", "us", false, 0},
	{"storage.get_us_per_kb", "us", false, 0},
	{"storage.bytes_written_per_trip", "B", false, 0},
	{"storage.files", "count", false, 0},

	{"analytics.fold_self_ns_per_trip", "ns", false, 0},
	{"analytics.fold_dropped_per_ktrip", "count", false, 0},
	{"analytics.fanout_ns_per_delta", "ns", false, 0},
	{"analytics.occupancy_p50_us", "us", false, 0},
	{"analytics.topk_p50_us", "us", false, 0},
	{"analytics.flows_p50_us", "us", false, 0},
	{"analytics.dwell_p50_us", "us", false, 0},
	{"analytics.snapshot_save_ms", "ms", false, 0},
	{"analytics.snapshot_load_ms", "ms", false, 0},
	{"analytics.bootstrap_tail_ms", "ms", false, 0},
	{"analytics.bootstrap_full_ms", "ms", false, 0},

	{"runtime.alloc_b_per_record", "B", false, 0},
	{"runtime.allocs_per_record", "count", false, 0},
	{"runtime.gc_cycles", "count", false, 0},
	{"runtime.gc_pause_total_ms", "ms", false, 0},
	{"runtime.peak_rss_mb", "MB", false, 0},

	{"bench.late_p99_ms", "ms", false, 0},
	{"bench.freshness_p999_ms", "ms", false, 0},
	{"bench.pass_spread_pct", "%", false, 0},
	{"bench.trace_overhead_pct", "%", false, 0},
}
