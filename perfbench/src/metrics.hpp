// The metric names and units the benchmark reports. BENCHMARK.json
// lists the same names; tests/test_tools.py keeps the two in
// step through `perfbench --list-metrics`.
#pragma once

#include <array>

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Untraced runs print these, on every workload.
inline constexpr std::array<MetricSpec, 5> kEndToEndMetrics{{
    {"setup_s", "s"},
    {"ops_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_p90_ms", "ms"},
    {"peak_rss_mb", "MB"},
}};

/// Traced runs print all of these on every workload; a layer the
/// workload leaves idle reads 0.
inline constexpr std::array<MetricSpec, 47> kLayerMetrics{{
    // control
    {"control.fbsm_ms", "ms"},
    {"control.pg_ms", "ms"},
    {"control.batch_ms", "ms"},
    {"control.iterations_per_solve", "count"},
    {"control.converged_ratio", "ratio"},
    {"control.pg_accept_ratio", "ratio"},
    {"control.batch_lane_util", "ratio"},
    // ode, kern
    {"ode.rhs_evals_per_op", "count"},
    {"ode.ns_per_rhs_eval", "ns"},
    // core, data
    {"core.model_build_ms", "ms"},
    // serve
    {"serve.rtt_ms", "ms"},
    {"serve.queue_wait_ms", "ms"},
    {"serve.run_ms", "ms"},
    {"serve.overhead_ms", "ms"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.rejected", "count"},
    // io
    {"io.graph_load_ms", "ms"},
    {"io.graph_bytes_ratio", "ratio"},
    {"io.event_decode_ms", "ms"},
    // graph
    {"graph.packed_op_ms", "ms"},
    {"graph.compressed_op_ms", "ms"},
    // sim
    {"sim.steps_per_op", "count"},
    {"sim.edges_per_step", "count"},
    {"sim.us_per_step", "us"},
    {"sim.infections_per_op", "count"},
    // stream
    {"stream.ingest_us_per_event", "us"},
    {"stream.tick_p50_ms", "ms"},
    {"stream.tick_p99_ms", "ms"},
    {"stream.tick_self_ms", "ms"},
    {"stream.rebuilds_per_tick", "count"},
    {"stream.refit_ms", "ms"},
    {"stream.replan_ms", "ms"},
    {"stream.refit_fail_ratio", "ratio"},
    {"stream.deadline_miss_ratio", "ratio"},
    // obs, util
    {"obs.trace_overhead_pct", "%"},
    {"util.cpu_util", "ratio"},
    // trace accounting: self time per op by layer, and coverage
    {"self.control_ms", "ms"},
    {"self.core_ms", "ms"},
    {"self.serve_ms", "ms"},
    {"self.sim_ms", "ms"},
    {"self.io_ms", "ms"},
    {"self.stream_ms", "ms"},
    {"self.bench_ms", "ms"},
    {"trace.coverage", "ratio"},
    {"trace.op_ms", "ms"},
    {"trace.traced_ops", "count"},
    {"trace.ops_per_s_untraced", "1/s"},
}};

}  // namespace perfbench
