package main

// metric names one reported number. BENCHMARK.json lists the same
// names, units and directions (TestBenchmarkJSONMatches keeps them in
// step).
type metric struct {
	name, unit, better string
}

// endToEnd are the numbers a user of the system sees, reported by
// every untraced run. Each workload defines all of them; README.md
// gives the per-workload definitions.
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"max_rate_rps", "1/s", "higher"},
	{"chains_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MiB", "lower"},
}

// perLayer are derived from a traced run: spans the benchmark records
// around public calls, and before/after deltas of the program's own
// counters. A layer that does not run on a workload reports 0.
var perLayer = []metric{
	{"loadgen.late_p99_ms", "ms", "lower"},
	{"service.http.self_ms", "ms", "lower"},
	{"service.http.response_kb", "KiB", "lower"},
	{"service.registry.draw_ms", "ms", "lower"},
	{"service.registry.hit_ratio", "ratio", "higher"},
	{"service.registry.compiles", "count", "lower"},
	{"locsample.draw_ms", "ms", "lower"},
	{"locsample.overhead_share", "ratio", "lower"},
	{"locsample.soa_share", "ratio", "higher"},
	{"locsample.alloc_kb_per_chain", "KiB", "lower"},
	{"locsample.gc_per_1k_chains", "count", "lower"},
	{"chains.ns_per_update", "ns", "lower"},
	{"csp.ns_per_update", "ns", "lower"},
	{"chains.flip_ratio", "ratio", "higher"},
	{"csp.flip_ratio", "ratio", "higher"},
	{"cluster.barrier_share", "ratio", "lower"},
	{"cluster.boundary_values_per_round", "count", "lower"},
	{"core.compile_s", "s", "lower"},
	{"core.warmup_s", "s", "lower"},
}

// overheadPrefix names the traced-minus-untraced difference of each
// end-to-end metric, reported with the per-layer metrics.
const overheadPrefix = "trace_overhead."

// traceMetrics is every metric a traced run reports.
func traceMetrics() []metric {
	out := append([]metric(nil), perLayer...)
	for _, m := range endToEnd {
		out = append(out, metric{overheadPrefix + m.name, m.unit, m.better})
	}
	return out
}
