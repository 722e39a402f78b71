package main

import (
	"fmt"
	"io"
	"sort"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions; a test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an
	// end-to-end metric may worsen before it is a regression. There is
	// one per metric for all workloads, so the noisiest workload sets
	// it. The machine this runs on drifts by a quarter in CPU speed
	// over minutes, which is why every timing sits at the driver's cap
	// of 0.25 (README.md, "Steadiness"); the counts repeat and are
	// tighter.
	Bound float64
}

// endToEndMetrics are what a user of the system sees. Every workload
// reports every one; README.md says how each workload arrives at it.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"uuid_p50_ms", "ms", "lower", 0.25},
	{"substring_p50_ms", "ms", "lower", 0.25},
	{"vector_p50_ms", "ms", "lower", 0.25},
	{"compound_p50_ms", "ms", "lower", 0.25},
	{"query_p95_ms", "ms", "lower", 0.25},
	{"query_qps", "1/s", "higher", 0.25},
	{"gets_per_query", "count", "lower", 0.15},
	{"allocs_per_query", "count", "lower", 0.15},
	{"vector_recall_at_10", "ratio", "higher", 0.25},
	{"build_mb_per_s", "MB/s", "higher", 0.25},
	{"index_bytes_per_data_byte", "ratio", "lower", 0.10},
	{"store_requests_per_mb", "count/MB", "lower", 0.15},
	{"ack_p50_ms", "ms", "lower", 0.25},
	{"searchable_lag_p50_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

func layerDefs() []metricDef {
	var defs []metricDef
	add := func(prefix, unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: prefix + "." + n, Unit: unit, Better: better})
		}
	}
	// objectstore: what the delayStore saw of the traced operations,
	// then the byte cache driven directly.
	add("objectstore", "count", "lower", "gets_per_op", "puts_per_op", "lists_per_op", "heads_per_op", "deletes_per_op")
	add("objectstore", "KB", "lower", "get_kb_per_op", "put_kb_per_op")
	add("objectstore", "ms", "lower", "wait_ms_per_op")
	add("objectstore", "count", "lower", "round_trips_per_op", "fan_width_max", "errors")
	for _, c := range classNames {
		add("objectstore", "ms", "lower", "wait_ms_"+c)
		add("objectstore", "count", "lower", "round_trips_"+c)
	}
	add("objectstore", "ns", "lower", "cache_hit_ns", "cache_miss_ns")
	add("objectstore", "ratio", "higher", "cache_hit_ratio")
	add("objectstore", "count", "lower", "cache_evictions_per_op")
	add("objectstore", "count", "higher", "cache_coalesced_per_op")

	add("objcache", "ns", "lower", "do_hit_ns")
	add("objcache", "ratio", "higher", "hit_ratio")
	add("objcache", "count", "lower", "evictions_per_op", "invalidations")

	add("lake", "ms", "lower", "open_snapshot_ms")
	add("lake", "count", "lower", "open_snapshot_gets")
	add("lake", "ms", "lower", "append_ms", "commit_ms")
	add("lake", "count", "lower", "commits_per_batch")

	add("meta", "ms", "lower", "list_ms")
	add("meta", "count", "lower", "list_gets")
	add("meta", "ms", "lower", "insert_ms")

	add("component", "ms", "lower", "open_ms")
	add("component", "count", "lower", "open_gets")
	add("component", "ms", "lower", "components_fan_ms")
	add("component", "MB/s", "higher", "build_mb_per_s")

	for _, kind := range []string{"trie", "fmindex", "ivfpq"} {
		add(kind, "ms", "lower", "open_ms", "probe_ms")
		add(kind, "count", "lower", "probe_gets", "probe_round_trips")
		add(kind, "us", "lower", "probe_cpu_us")
		add(kind, "MB/s", "higher", "build_mb_per_s", "merge_mb_per_s")
		add(kind, "ratio", "lower", "index_bytes_per_data_byte")
	}

	add("parquet", "MB/s", "higher", "write_mb_per_s", "scan_column_mb_per_s")
	add("parquet", "us", "lower", "read_pages_us")
	add("parquet", "ratio", "lower", "file_bytes_per_raw_byte")

	add("insitu", "ms", "lower", "probe_pages_ms")
	add("insitu", "count", "lower", "probe_pages_gets")
	add("insitu", "ms", "lower", "eval_pages_ms", "scan_file_ms")

	add("postings", "ns", "lower", "intersect_ns", "union_ns", "decode_list_ns")

	add("core", "ms", "lower", "above_store_ms_per_op")
	add("core", "KB", "lower", "alloc_kb_per_query")
	add("core", "ratio", "higher", "plan_cache_hit_ratio", "probe_coalesced_ratio")
	add("core", "count", "lower", "pages_probed_per_query")
	add("core", "s", "lower", "index_s", "compact_s", "vacuum_s")
	for _, c := range classNames {
		add("core", "ms", "lower", "unattributed_"+c+"_ms")
	}

	add("ingest", "ms", "lower", "ack_p95_ms", "lag_p95_ms")
	add("ingest", "s", "lower", "drain_s")
	add("ingest", "count", "higher", "batches_per_commit")
	add("ingest", "count", "lower", "jobs_index", "jobs_compact", "jobs_vacuum", "job_requests",
		"sched_pauses", "backpressure_waits", "budget_waits", "on_covered_missing")

	add("shard", "ms", "lower", "router_overhead_ms")
	add("shard", "ns", "lower", "merge_topk_ns")
	add("adaptive", "ns", "lower", "ledger_observe_ns")

	add("benchmark", "%", "lower", "trace_overhead_pct")
	add("benchmark", "ms", "lower", "generator_late_ms_max")
	add("benchmark", "count", "higher", "samples")
	add("benchmark", "%", "higher", "tail_percentile")
	add("benchmark", "ms", "lower", "tail_ms")
	return defs
}

// perLayerMetrics are what a traced run reports: one layer each,
// measured from outside. A layer the workload does not exercise
// reports 0.
var perLayerMetrics = layerDefs()

// printMetrics lists every reported metric by name with its unit.
func printMetrics(w io.Writer, rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(w, "%-40s %14.4f %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "attempted %d failed %d correct %v\n", rep.Attempted, rep.Failed, rep.Correct)
}
