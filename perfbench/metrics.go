package main

import (
	"fmt"
	"sort"
)

// metricDef names one reported metric and its unit. The lists below are the
// benchmark's contract with BENCHMARK.json (TestMetricNamesMatchManifest
// keeps the two in step): an untraced run prints every end-to-end metric,
// a traced run every per-layer metric.
type metricDef struct {
	name, unit string
}

var endToEnd = []metricDef{
	{"instances_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"goodput_rps", "1/s"},
	{"ok_share", "ratio"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb_per_instance", "MB"},
	{"score_vs_truth", "ratio"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"score.prepare_ms", "ms"},
	{"score.alloc_mb", "MB"},
	{"seed.candidates_ms", "ms"},
	{"seed.pairs", "count"},
	{"seed.anchors", "count"},
	{"seed.pair_space", "count"},
	{"seed.pair_fraction", "ratio"},
	{"onecsr.fourapprox_ms", "ms"},
	{"improve.solve_ms", "ms"},
	{"improve.self_ms", "ms"},
	{"improve.alloc_mb", "MB"},
	{"improve.evaluated", "count"},
	{"improve.popped", "count"},
	{"improve.resimulated", "count"},
	{"improve.skipped", "count"},
	{"improve.enum_refreshed", "count"},
	{"improve.enum_reused", "count"},
	{"improve.accepted", "count"},
	{"improve.accept_per_evaluated", "ratio"},
	{"improve.enum_reuse_ratio", "ratio"},
	{"core.conjecture_ms", "ms"},
	{"align.cells", "count"},
	{"align.score_ns_per_cell", "ns"},
	{"align.score_int_ns_per_cell", "ns"},
	{"align.placements_ns_per_cell", "ns"},
	{"align.computed_mb", "MB"},
	{"batch.queue_wait_p50_ms", "ms"},
	{"batch.queue_wait_p90_ms", "ms"},
	{"batch.queue_wait_samples", "count"},
	{"batch.shard_busy_share", "ratio"},
	{"batch.sigma_hits", "count"},
	{"batch.sigma_misses", "count"},
	{"encoding.read_jsonl_ms", "ms"},
	{"encoding.write_result_ms", "ms"},
	{"serve.ttfb_ms", "ms"},
	{"serve.stream_ms", "ms"},
	{"serve.solve_share", "ratio"},
	{"serve.rejected_429", "count"},
	{"serve.generator_late_ms", "ms"},
	{"trace.instances", "count"},
	{"trace.spans", "count"},
	{"trace.pipeline_ms", "ms"},
	{"trace.overhead_ms", "ms"},
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of a run's standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// unitOf maps every known metric name to its unit.
var unitOf = func() map[string]string {
	m := map[string]string{}
	for _, l := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range l {
			m[d.name] = d.unit
		}
	}
	return m
}()

// missing lists the metrics of defs that r does not carry.
func (r *report) missing(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		if _, ok := r.Metrics[d.name]; !ok {
			out = append(out, d.name)
		}
	}
	sort.Strings(out)
	return out
}

// set records a metric under its declared unit. Unknown names are a bug in
// the benchmark, not a property of the system under test.
func (r *report) set(name string, v float64) {
	u, ok := unitOf[name]
	if !ok {
		panic(fmt.Sprintf("perfbench: undeclared metric %q", name))
	}
	if r.Metrics == nil {
		r.Metrics = map[string]metricValue{}
	}
	r.Metrics[name] = metricValue{Value: v, Unit: u}
}
