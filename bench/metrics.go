package main

import (
	"fmt"
	"sort"
)

// metricDef names one reported metric and its unit. The two lists below
// are the benchmark's contract with BENCHMARK.json, which must list the
// same names with the same units (TestMetricCatalogMatchesBenchmarkJSON).
type metricDef struct{ name, unit string }

// endToEnd is what an untraced run of every workload reports and
// BENCHMARK.json bounds: the set-up, throughput and memory a user pays.
// For the closed loops an op is one GA run, one cold dictionary build or
// one double-fault grid build: setup_s is the median set-up time,
// ops_per_s the share of ops that completed over the median op time, and
// alloc_mb_per_op the mean heap allocated per op. For serve-open an op
// is a reply in the saturation step, client and server together. Times
// are calibrated wall-clock times (calib.go): the raw numbers,
// latencies, tails and peak RSS are printed beside them without a bound.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"alloc_mb_per_op", "MB"},
}

// serveSteps names the serve-open steps: the open-loop rate steps, light
// to busy, then the closed-loop saturation step. The per-step layer
// metrics carry the step name as a suffix.
var serveSteps = []string{"2k", "4k", "sat"}

// perLayer is what a traced run reports. Every workload reports every
// name; a layer the workload never enters reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		// atpg-paper: the GA and the fitness path under it.
		{"ga.evals", "count"},
		{"ga.zero_fitness_share", "fraction"},
		{"ga.self_ms", "ms"},
		{"trajectory.build_us", "us"},
		{"geometry.intersections_us", "us"},
		{"dictionary.signatures_us", "us"},
		{"engine.batch_us", "us"},
		{"engine.dense_factors_per_eval", "count"},
		{"engine.rank1_per_eval", "count"},
		{"atpg.allocs_per_eval", "count"},
		// dict-grid: set-up split, cold vs warm builds, the per-frequency
		// split of one engine column, and the frequency worker pool.
		{"engine.compile_ms", "ms"},
		{"engine.new_ms", "ms"},
		{"numeric.analyze_ms", "ms"},
		{"dictionary.cold_build_ms", "ms"},
		{"dictionary.warm_build_ms", "ms"},
		{"engine.first_call_ms", "ms"},
		{"engine.alloc_mb_cold", "MB"},
		{"engine.alloc_mb_warm", "MB"},
		{"engine.stamp_us", "us"},
		{"numeric.refactor_us", "us"},
		{"numeric.solve_us", "us"},
		{"engine.residual_us", "us"},
		{"engine.batch_1w_ms", "ms"},
		{"engine.batch_2w_ms", "ms"},
		{"engine.pool_speedup", "ratio"},
		{"dictionary.memo_ms", "ms"},
		{"engine.sparse_factors", "count"},
		{"engine.supernodal_refactors", "count"},
		{"engine.rank1_solves", "count"},
		{"engine.exact_fallbacks", "count"},
		{"engine.partial_refactors", "count"},
		{"engine.dense_fallbacks", "count"},
		{"numeric.nnz", "count"},
		{"numeric.lu_nnz", "count"},
		{"numeric.supernodes", "count"},
		{"numeric.lu_bytes", "bytes"},
		// dict-pairs: the rank-2 item loop and the dictionary memo.
		{"engine.batch_ms", "ms"},
		{"fault.id_ms", "ms"},
		{"engine.residual_ns_per_item", "ns"},
		{"engine.rankk_solves", "count"},
		{"engine.partial_refactor_columns", "count"},
		{"dictionary.memo_entries", "count"},
		// serve-open: scoring and projection outside the load window.
		{"probdiag.score_us", "us"},
		{"diagnosis.project_us", "us"},
		{"engine.solve_us_per_flush", "us"},
		// Every workload: root time no layer span covers, and how much
		// tracing slowed the traced op (traced / untraced median − 1).
		{"trace.unattributed_share", "fraction"},
		{"trace.overhead_share", "fraction"},
	}
	for _, step := range serveSteps {
		defs = append(defs,
			metricDef{"serve.queue_wait_p50_ms_" + step, "ms"},
			metricDef{"serve.coalescing_" + step, "ratio"},
			metricDef{"serve.flush_p50_ms_" + step, "ms"},
			metricDef{"serve.engine_solve_p50_ms_" + step, "ms"},
			metricDef{"serve.queue_rejects_" + step, "count"},
			metricDef{"serve.canceled_" + step, "count"},
			metricDef{"serve.handler_p50_ms_" + step, "ms"},
			metricDef{"loadgen.dispatch_p50_ms_" + step, "ms"},
			metricDef{"loadgen.late_p99_ms_" + step, "ms"},
			metricDef{"loadgen.sent_" + step, "count"},
		)
	}
	return defs
}()

// metricValue is one reported number with its unit, the shape of every
// entry in the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run's outcome.
type result struct {
	Workload  string `json:"workload"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Metrics holds the end-to-end metrics of an untraced run or the
	// per-layer metrics of a traced run, by name.
	Metrics map[string]metricValue `json:"metrics"`
	// Extra holds further numbers the run printed: raw wall-clock times,
	// latency, throughput and goodput, the calibration time, peak RSS,
	// tail percentile and sample counts, the failed share, and the
	// traced run's baselines.
	Extra map[string]metricValue `json:"extra,omitempty"`
	// Problems lists the output checks that failed.
	Problems []string `json:"problems,omitempty"`
}

func newResult(workload string) *result {
	return &result{Workload: workload, Correct: true, Metrics: map[string]metricValue{}, Extra: map[string]metricValue{}}
}

// fail records a failed output check.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// failOp counts a failed operation of a closed loop. Such an op has no
// legitimate way to fail, so it fails the output checks too.
func (r *result) failOp(format string, args ...any) {
	r.Failed++
	r.fail(format, args...)
}

func (r *result) extra(name string, v float64, unit string) {
	r.Extra[name] = metricValue{v, unit}
}

// fill sets the result's metrics from values keyed by metric name: every
// name in defs is reported, 0 where values has none, and a value under a
// name defs does not list is an error.
func (r *result) fill(defs []metricDef, values map[string]float64) error {
	known := make(map[string]string, len(defs))
	for _, d := range defs {
		known[d.name] = d.unit
	}
	var unknown []string
	for name := range values {
		if _, ok := known[name]; !ok {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return fmt.Errorf("metrics outside the catalogue: %v", unknown)
	}
	for _, d := range defs {
		r.Metrics[d.name] = metricValue{values[d.name], d.unit}
	}
	return nil
}
