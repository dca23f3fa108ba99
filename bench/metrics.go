package main

import (
	"encoding/json"
)

// metricDef declares one reported number. The two lists below are the
// only place metric names, units and bounds are written down in code;
// BENCHMARK.json at the repository root is `bench -describe`, and the
// smoke test fails when the two differ.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

// endToEndMetrics are measured with tracing off, on every workload, over
// every block and expression of the phase. All of them are positive on
// all five workloads.
//
// The wall-clock ones carry the widest bound the driver allows, not the
// tenth the issue asked for. The driver refuses a benchmark whose ten-run
// spread exceeds the bound and asks for a bound of three times the
// spread seen. On the two-core sandbox this was written on, ten runs of
// one commit spread by 1-6 % in a quiet quarter of an hour and by up to
// 15 % in a noisy one (README.md, "Run-to-run spread"), so a bound of a
// tenth would be refused there, and moving throughput and latency to the
// unbounded list, as the issue says to do with a metric that does not
// repeat within a tenth, would leave no timing a later PR is held to.
// The counts repeat to a percent or two and keep tight bounds.
//
// Three end-to-end numbers of the design are not here because they are
// zero or undefined on some workload: pages read per expression (zero
// on a warm pool) and the maintenance cycle time (one workload only) are
// per-layer metrics, and the failure ratio is the failed/attempted pair
// of the result line.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"expr_per_s", "1/s", "higher", 0.25},
	{"expr_p50_ms", "ms", "lower", 0.25},
	{"expr_p95_ms", "ms", "lower", 0.25},
	{"allocs_per_expr", "count", "lower", 0.05},
	{"alloc_kb_per_expr", "KiB", "lower", 0.10},
	{"op_mem_peak_mb", "MiB", "lower", 0.05},
	{"space_amp", "ratio", "lower", 0.01},
}

// perLayerMetrics come from the traced pass; the prefix is the module
// the number belongs to. A metric that does not apply to a workload
// (rescache.* without a result cache, star.refresh_ms without a
// maintainer) is reported as 0.
var perLayerMetrics = []metricDef{
	{Name: "mdx.parse_translate_us", Unit: "us", Better: "lower"},
	{Name: "mdx.queries_per_expr", Unit: "count", Better: "lower"},

	{Name: "core.optimize_tplo_us", Unit: "us", Better: "lower"},
	{Name: "core.optimize_etplg_us", Unit: "us", Better: "lower"},
	{Name: "core.optimize_gg_us", Unit: "us", Better: "lower"},
	{Name: "plan.classes_per_expr", Unit: "count", Better: "lower"},
	{Name: "plan.probe_class_ratio", Unit: "ratio", Better: "higher"},
	{Name: "plan.est_cost_gg", Unit: "us", Better: "lower"},
	{Name: "plan.est_cost_ratio_tplo_gg", Unit: "ratio", Better: "higher"},
	{Name: "plan.run_ratio_tplo_gg", Unit: "ratio", Better: "higher"},
	{Name: "plan.run_ratio_etplg_gg", Unit: "ratio", Better: "higher"},

	{Name: "facade.plan_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "facade.assemble_us", Unit: "us", Better: "lower"},
	{Name: "facade.layer_sum_ratio", Unit: "ratio", Better: "higher"},
	{Name: "facade.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "facade.expr_max_ms", Unit: "ms", Better: "lower"},

	{Name: "star.pin_ns", Unit: "ns", Better: "lower"},
	{Name: "star.load_close_ms", Unit: "ms", Better: "lower"},
	{Name: "star.refresh_ms", Unit: "ms", Better: "lower"},
	{Name: "star.compact_ms", Unit: "ms", Better: "lower"},
	{Name: "star.cycle_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "star.publish_p50_us", Unit: "us", Better: "lower"},
	{Name: "star.publishes", Unit: "count", Better: "lower"},
	{Name: "star.retired_files_max", Unit: "count", Better: "lower"},
	{Name: "star.reclaimed_files", Unit: "count", Better: "higher"},

	{Name: "exec.lookup_build_us", Unit: "us", Better: "lower"},
	{Name: "exec.shared_scan_us", Unit: "us", Better: "lower"},
	{Name: "exec.shared_mixed_us", Unit: "us", Better: "lower"},
	{Name: "exec.scan_tuples_per_s", Unit: "1/s", Better: "higher"},
	{Name: "exec.tuples_agg_per_expr", Unit: "count", Better: "lower"},
	{Name: "exec.packed_fold_ratio", Unit: "ratio", Better: "higher"},
	{Name: "exec.shared_index_us", Unit: "us", Better: "lower"},
	{Name: "exec.fetched_tuples_per_s", Unit: "1/s", Better: "higher"},
	{Name: "exec.bit_tests_per_expr", Unit: "count", Better: "lower"},
	{Name: "exec.bitmap_words_per_expr", Unit: "count", Better: "lower"},
	{Name: "exec.rollup_cached_us", Unit: "us", Better: "lower"},
	{Name: "exec.cache_rows_per_expr", Unit: "count", Better: "lower"},
	{Name: "exec.spill_bytes_per_expr", Unit: "bytes", Better: "lower"},
	{Name: "exec.spill_expr_ratio", Unit: "ratio", Better: "lower"},

	{Name: "dag.nodes_per_expr", Unit: "count", Better: "lower"},
	{Name: "dag.worker_peak", Unit: "count", Better: "higher"},
	{Name: "dag.effective_workers", Unit: "count", Better: "higher"},
	{Name: "dag.speedup_w2", Unit: "ratio", Better: "higher"},

	{Name: "mem.peak_mb", Unit: "MiB", Better: "lower"},
	{Name: "mem.denied", Unit: "count", Better: "lower"},
	{Name: "mem.deferred", Unit: "count", Better: "lower"},
	{Name: "mem.overdraft_bytes", Unit: "bytes", Better: "lower"},
	{Name: "mem.used_after_phase", Unit: "bytes", Better: "lower"},

	{Name: "rescache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "rescache.evictions", Unit: "count", Better: "lower"},
	{Name: "rescache.bytes_mb", Unit: "MiB", Better: "lower"},
	{Name: "rescache.probe_us", Unit: "us", Better: "lower"},
	{Name: "rescache.put_us", Unit: "us", Better: "lower"},

	{Name: "storage.pool_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "storage.pages_read_per_expr", Unit: "pages", Better: "lower"},
	{Name: "storage.seq_reads_per_expr", Unit: "count", Better: "lower"},
	{Name: "storage.rand_reads_per_expr", Unit: "count", Better: "lower"},
	{Name: "storage.evictions_per_expr", Unit: "count", Better: "lower"},
	{Name: "storage.flushes_per_expr", Unit: "count", Better: "lower"},
	{Name: "storage.writes_per_cycle", Unit: "pages", Better: "lower"},
	{Name: "storage.flushes_per_cycle", Unit: "count", Better: "lower"},
	{Name: "storage.write_bytes_per_fact_byte", Unit: "ratio", Better: "lower"},
	{Name: "storage.fetch_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "storage.fetch_miss_us", Unit: "us", Better: "lower"},

	{Name: "table.scan_us_per_page", Unit: "us", Better: "lower"},
	{Name: "table.fetch_page_us", Unit: "us", Better: "lower"},

	{Name: "bitmap.index_load_us", Unit: "us", Better: "lower"},
	{Name: "bitmap.union_words_per_s", Unit: "1/s", Better: "higher"},

	{Name: "datagen.build_s", Unit: "s", Better: "lower"},
	{Name: "datagen.rows_per_s", Unit: "1/s", Better: "higher"},
}

func findMetric(name string) *metricDef {
	for _, list := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
		for i := range list {
			if list[i].Name == name {
				return &list[i]
			}
		}
	}
	return nil
}

// runSeconds is the length of one timed phase the driver asks for.
const runSeconds = 10

// describe renders BENCHMARK.json.
func describe() ([]byte, error) {
	type workloadDef struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"` // no bounds: Bound is omitted when zero
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEndMetrics,
		PerLayer:   perLayerMetrics,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadDef{w.name, w.why})
	}
	blob, err := json.MarshalIndent(doc, "", "  ")
	return append(blob, '\n'), err
}
