#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <thread>
#include <unordered_set>
#include <utility>

#include "checks.hpp"
#include "io/json.hpp"
#include "kern/kern.hpp"
#include "metrics.hpp"
#include "stats.hpp"
#include "util/build_info.hpp"
#include "util/parallel.hpp"

namespace perfbench {

namespace {

/// Set-ups per run: at least kMinSetups, and more while they have taken
/// less than kSetupBudgetS together, up to kMaxSetups. The median is
/// reported, so one slow set-up (a page cache miss, a host hiccup) does
/// not move setup_s, and a short set-up, whose single timings spread
/// ±25% within one run, is repeated until its median settles.
constexpr std::size_t kMinSetups = 5;
constexpr std::size_t kMaxSetups = 25;
constexpr double kSetupBudgetS = 1.0;
/// A traced run alternates untraced and traced slices of this length,
/// so the tracing overhead is measured against the same host phase.
constexpr std::int64_t kTraceSliceNs = 1'000'000'000;
/// Closed-loop ops before the timed window, not counted.
constexpr auto kRamp = std::chrono::seconds(2);
/// On this class of VM a vCPU that has been idle runs at about a quarter
/// of full speed for its first second of work, even on a pure integer
/// loop; every core spins this long before the first set-up is timed.
constexpr auto kCoreWarmup = std::chrono::seconds(1);
/// Chrome trace files stay loadable; the aggregates use every span.
constexpr std::size_t kMaxTraceEvents = 50'000;

/// Spin every core for kCoreWarmup. Returns the spin rate of the last
/// half, in millions of loop blocks per second per core: a
/// repo-independent reading of how fast the host ran this run.
double warm_cores(std::size_t cores) {
  const auto start = Clock::now();
  const auto half = start + kCoreWarmup / 2;
  const auto until = start + kCoreWarmup;
  std::vector<std::uint64_t> blocks(cores, 0);
  std::vector<std::thread> spinners;
  for (std::size_t c = 0; c < cores; ++c) {
    spinners.emplace_back([&blocks, c, half, until] {
      std::uint64_t x = 1;
      for (auto now = Clock::now(); now < until; now = Clock::now()) {
        for (int i = 0; i < 4096; ++i) x = x * 6364136223846793005ULL + 1;
        if (now >= half) ++blocks[c];
      }
      volatile std::uint64_t sink = x;
      (void)sink;
    });
  }
  for (auto& spinner : spinners) spinner.join();
  std::uint64_t total = 0;
  for (auto b : blocks) total += b;
  const double seconds = std::chrono::duration<double>(until - half).count();
  return static_cast<double>(total) / (seconds * static_cast<double>(cores) * 1e6);
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Steal and total ticks of all CPUs from /proc/stat ({0, 0} if absent).
std::pair<double, double> cpu_ticks() {
  std::ifstream file("/proc/stat");
  std::string cpu;
  double field = 0.0, total = 0.0, steal = 0.0;
  file >> cpu;
  for (int i = 0; i < 8 && file >> field; ++i) {  // user .. steal
    total += field;
    if (i == 7) steal = field;
  }
  return {steal, total};
}

double load_average() {
  std::ifstream file("/proc/loadavg");
  double load = -1.0;
  file >> load;
  return load;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return percentile_sorted(values, 0.5);
}

bool traced_slice(std::int64_t t_ns) { return (t_ns / kTraceSliceNs) % 2 == 1; }

/// Σ of traced-slice time inside [0, window_ns).
double traced_slice_seconds(std::int64_t window_ns) {
  const std::int64_t full = window_ns / kTraceSliceNs;
  std::int64_t traced = (full / 2) * kTraceSliceNs;
  if (full % 2 == 1) traced += window_ns - full * kTraceSliceNs;
  return static_cast<double>(traced) * 1e-9;
}

/// JSON has no infinity or NaN; a non-finite end-to-end value is
/// printed as -1 and also fails the run (check_finite_metric).
io::JsonValue metric_value(double value, const char* unit) {
  io::JsonValue entry = io::JsonValue::make_object();
  entry.set("value", std::isfinite(value) ? value : -1.0);
  entry.set("unit", unit);
  return entry;
}

void write_chrome_trace(const std::string& path,
                        const std::vector<std::unique_ptr<Worker>>& workers) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write trace %s\n", path.c_str());
    return;
  }
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  std::size_t written = 0;
  for (const auto& worker : workers) {
    for (const Span& span : worker->spans()) {
      if (written == kMaxTraceEvents) break;
      char buf[320];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                    "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%zu,"
                    "\"args\":{\"op\":%llu,\"parent\":%d}}",
                    written == 0 ? "" : ",\n", span.name, span.layer,
                    static_cast<double>(span.t0) * 1e-3,
                    static_cast<double>(span.t1 - span.t0) * 1e-3,
                    worker->index(), static_cast<unsigned long long>(span.op),
                    static_cast<int>(span.parent));
      out << buf;
      ++written;
    }
  }
  out << "]}\n";
}

}  // namespace

void hop_to_core(std::size_t n) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  const int count = CPU_COUNT(&allowed);
  if (count <= 1) return;
  int target = static_cast<int>(n % static_cast<std::size_t>(count));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || target-- != 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) == 0) {
      sched_setaffinity(0, sizeof(allowed), &allowed);
    }
    return;
  }
}

// ---- Worker ------------------------------------------------------------

Worker::Worker(std::size_t index, std::uint64_t seed, Clock::time_point start,
               Clock::time_point end, bool trace)
    : index_(index),
      rng_(util::hash_mix(seed, 0x7065726662656e63ULL + index)),
      start_(start),
      end_(end),
      trace_(trace) {}

std::int64_t Worker::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start_)
      .count();
}

void Worker::begin_op() {
  op_t0_ = now_ns();
  op_id_ = (static_cast<std::uint64_t>(index_) << 40) | next_op_++;
  op_traced_ = trace_ && traced_slice(op_t0_);
  op_open_ = true;
  open_ = -1;
  if (op_traced_) {
    spans_.push_back({"op", "bench", op_t0_, 0, -1, op_id_});
    open_ = static_cast<std::int32_t>(spans_.size() - 1);
  }
}

void Worker::end_op(int kind, bool ok) {
  const std::int64_t t1 = now_ns();
  if (op_traced_ && open_ >= 0) spans_[static_cast<std::size_t>(open_)].t1 = t1;
  ops_.push_back({op_t0_, t1, op_id_, kind, ok, op_traced_});
  op_traced_ = false;
  op_open_ = false;
  open_ = -1;
}

std::int32_t Worker::open_span(const char* name, const char* layer) {
  if (!op_traced_) return -1;
  spans_.push_back({name, layer, now_ns(), 0, open_, op_id_});
  open_ = static_cast<std::int32_t>(spans_.size() - 1);
  return open_;
}

void Worker::close_span(std::int32_t index) {
  if (index < 0) return;
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.t1 = now_ns();
  open_ = span.parent;
}

Worker::Scope::Scope(Worker& worker, const char* name, const char* layer)
    : worker_(&worker), index_(worker.open_span(name, layer)) {}

Worker::Scope::~Scope() { worker_->close_span(index_); }

void Worker::add_measured_child(const char* name, const char* layer,
                                double duration_ms) {
  if (!op_traced_ || open_ < 0) return;
  const std::int64_t t0 = spans_[static_cast<std::size_t>(open_)].t0;
  const auto dur = static_cast<std::int64_t>(std::llround(duration_ms * 1e6));
  spans_.push_back({name, layer, t0, t0 + dur, open_, op_id_});
}

void Worker::fail_check(const std::string& reason) {
  if (check_failures_.size() < 16) check_failures_.push_back(reason);
  if (check_failures_.size() == 1) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", reason.c_str());
  }
}

// ---- WindowSummary -------------------------------------------------------

std::uint64_t WindowSummary::counter_delta(const char* name) const {
  return after.counter(name) - before.counter(name);
}

std::pair<double, std::uint64_t> WindowSummary::histogram_delta(
    const char* name) const {
  const auto find = [name](const obs::MetricsSnapshot& snap) {
    for (const auto& h : snap.histograms) {
      if (h.name == name) return std::make_pair(h.sum, h.count);
    }
    return std::make_pair(0.0, std::uint64_t{0});
  };
  const auto [sum0, count0] = find(before);
  const auto [sum1, count1] = find(after);
  return {sum1 - sum0, count1 - count0};
}

// ---- run ---------------------------------------------------------------

int run_benchmark(Workload& workload, const RunConfig& config) {
  const double load_at_start = load_average();
  const double host_speed = warm_cores(config.workers);

  std::vector<double> setup_s;
  for (double total = 0.0;;) {
    // A core's speed holds for seconds at a time, so set-ups run back to
    // back on one core all read that core's state; each starts on the
    // next core instead.
    hop_to_core(setup_s.size());
    const auto t0 = Clock::now();
    workload.setup(config);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    total += setup_s.back();
    if (setup_s.size() == kMaxSetups ||
        (setup_s.size() >= kMinSetups && total >= kSetupBudgetS)) {
      break;
    }
    workload.teardown();
  }

  // Workers start together and run a ramp of uncounted ops first: cores
  // idle during a single-threaded set-up are slow again (see
  // kCoreWarmup), and per-thread arenas and caches fill.
  const auto ramp = Clock::now() + std::chrono::milliseconds(20);
  const auto start = ramp + kRamp;
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(config.seconds));
  const auto window_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count();
  std::vector<std::unique_ptr<Worker>> workers;
  for (std::size_t w = 0; w < config.workers; ++w) {
    workers.push_back(
        std::make_unique<Worker>(w, config.seed, start, end, config.trace));
  }
  std::vector<std::thread> threads;
  std::vector<std::string> crashes(config.workers);
  for (std::size_t w = 0; w < config.workers; ++w) {
    threads.emplace_back([&, w] {
      std::this_thread::sleep_until(ramp);
      try {
        workload.work(*workers[w]);
      } catch (const std::exception& e) {
        crashes[w] = e.what();
      }
    });
  }
  std::this_thread::sleep_until(start);
  WindowSummary window;
  window.before = obs::metrics().snapshot();
  const double cpu0 = process_cpu_seconds();
  const auto ticks0 = cpu_ticks();
  std::this_thread::sleep_until(end);
  window.after = obs::metrics().snapshot();
  const double cpu_window = process_cpu_seconds() - cpu0;
  const auto ticks1 = cpu_ticks();
  // Share of CPU time the host gave other guests: the guest's one direct
  // view of contention on the host.
  const double steal_pct =
      ticks1.second > ticks0.second
          ? 100.0 * (ticks1.first - ticks0.first) / (ticks1.second - ticks0.second)
          : 0.0;
  for (auto& thread : threads) thread.join();
  const auto checks_start = Clock::now();
  threads.clear();
  for (std::size_t w = 0; w < config.workers; ++w) {
    threads.emplace_back([&, w] {
      try {
        workload.check(*workers[w]);
      } catch (const std::exception& e) {
        crashes[w] += std::string(crashes[w].empty() ? "" : "; ") +
                      "check: " + e.what();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const double check_s = seconds_between(checks_start, Clock::now());
  workload.teardown();

  // Ops that completed inside the window count; later ones only ran so
  // the loop could stop cleanly.
  const auto kinds = workload.kind_names();
  window.kind_latency_ms.resize(kinds.size());
  OpTally tally;
  std::uint64_t ok_untraced = 0, ok_traced = 0;
  std::vector<std::string> failures;
  for (std::size_t w = 0; w < workers.size(); ++w) {
    const Worker& worker = *workers[w];
    if (!crashes[w].empty()) {
      failures.push_back("worker " + std::to_string(w) + ": " + crashes[w]);
    }
    for (const auto& f : worker.check_failures()) failures.push_back(f);
    std::unordered_set<std::uint64_t> traced_ops;
    for (const OpRecord& op : worker.ops()) {
      if (op.t0 < 0 || op.t1 > window_ns) continue;
      if (!op.ok) {
        tally.add_failed();
        continue;
      }
      const double ms = static_cast<double>(op.t1 - op.t0) * 1e-6;
      tally.add_ok(ms);
      window.kind_latency_ms[static_cast<std::size_t>(op.kind)].push_back(ms);
      ++window.ops_ok;
      if (op.traced) {
        ++ok_traced;
        traced_ops.insert(op.op);
      } else {
        ++ok_untraced;
      }
    }
    const auto& spans = worker.spans();
    std::vector<double> child_ms(spans.size(), 0.0);
    for (const Span& span : spans) {
      if (span.parent >= 0 && span.t1 > 0) {
        child_ms[static_cast<std::size_t>(span.parent)] +=
            static_cast<double>(span.t1 - span.t0) * 1e-6;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      if (traced_ops.count(span.op) == 0) continue;
      const double ms = static_cast<double>(span.t1 - span.t0) * 1e-6;
      window.layer_self_ms[span.layer] += ms - child_ms[i];
      auto& [count, total] = window.span_ms[span.name];
      ++count;
      total += ms;
      if (span.parent < 0) window.traced_op_ms += ms;
    }
    window.traced_ops += traced_ops.size();
  }
  for (auto& v : window.kind_latency_ms) std::sort(v.begin(), v.end());

  const std::vector<double> latencies = tally.sorted_samples();
  const double p50 = percentile_sorted(latencies, 0.50);
  const double p90 = percentile_sorted(latencies, 0.90);
  const double ops_per_s = static_cast<double>(window.ops_ok) / config.seconds;
  const double end_to_end[] = {median(setup_s), ops_per_s, p50, p90,
                               peak_rss_mb()};
  for (std::size_t i = 0; i < kEndToEndMetrics.size(); ++i) {
    const std::string verdict =
        check_finite_metric(kEndToEndMetrics[i].name, end_to_end[i]);
    if (!verdict.empty()) failures.push_back(verdict);
  }

  // Workloads may reattribute self time, so this runs before any of the
  // span aggregates are read.
  Metrics layer;
  if (config.trace) workload.layer_metrics(window, layer);

  // ---- run record ------------------------------------------------------
  io::JsonValue run = io::JsonValue::make_object();
  const auto& build = rumor::util::build_info();
  run.set("workload", config.workload);
  run.set("seed", static_cast<double>(config.seed));
  run.set("seconds", config.seconds);
  run.set("trace", config.trace);
  run.set("commit", config.commit.empty() ? build.git_describe : config.commit);
  run.set("build_type", build.build_type);
  run.set("compiler", build.compiler);
  run.set("kernel_backend", rumor::kern::to_string(rumor::kern::ops().backend));
  run.set("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  run.set("workers", static_cast<double>(config.workers));
  run.set("engine_threads", static_cast<double>(rumor::util::num_threads()));
  run.set("loadavg_start", load_at_start);
  run.set("host_spin_rate", host_speed);
  run.set("host_steal_pct", steal_pct);
  io::JsonValue reps = io::JsonValue::make_array();
  for (double s : setup_s) reps.push_back(s);
  run.set("setup_s_reps", std::move(reps));
  run.set("ops_ok", static_cast<double>(window.ops_ok));
  run.set("attempted", static_cast<double>(tally.attempted()));
  run.set("failed", static_cast<double>(tally.failed()));
  // Completions per second of the window: the within-run noise floor.
  std::vector<double> per_second(static_cast<std::size_t>(std::ceil(config.seconds)), 0.0);
  for (const auto& worker : workers) {
    for (const OpRecord& op : worker->ops()) {
      if (op.ok && op.t0 >= 0 && op.t1 <= window_ns) per_second[static_cast<std::size_t>(op.t1 / 1'000'000'000)] += 1.0;
    }
  }
  io::JsonValue slices = io::JsonValue::make_array();
  for (double n : per_second) slices.push_back(n);
  run.set("ops_per_second", std::move(slices));
  run.set("check_s", check_s);
  run.set("cpu_util", cpu_window / (config.seconds *
                                    static_cast<double>(config.workers)));
  io::JsonValue percentiles = io::JsonValue::make_object();
  bool any_flagged = false;
  for (const auto& [label, p] : {std::pair{"p50", 0.50}, std::pair{"p90", 0.90}}) {
    const GuardVerdict guard = percentile_guard(latencies, p);
    any_flagged = any_flagged || guard.flagged;
    io::JsonValue entry = io::JsonValue::make_object();
    entry.set("ms", percentile_sorted(latencies, p));
    entry.set("samples", static_cast<double>(latencies.size()));
    entry.set("beyond", guard.beyond);
    entry.set("jump", std::isfinite(guard.jump) ? guard.jump : -1.0);
    entry.set("flagged", guard.flagged);
    percentiles.set(label, std::move(entry));
    if (guard.flagged) {
      std::fprintf(stderr,
                   "perfbench: WARNING %s sits on a jump of the quantile "
                   "function (ranks %zu..%zu differ by %.0f%%, %.0f samples "
                   "beyond)\n",
                   label, guard.lo, guard.hi, 100.0 * guard.jump, guard.beyond);
    }
  }
  run.set("percentiles", std::move(percentiles));
  run.set("percentile_flagged", any_flagged);
  io::JsonValue by_kind = io::JsonValue::make_object();
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    const auto& v = window.kind_latency_ms[k];
    if (v.empty()) continue;
    io::JsonValue entry = io::JsonValue::make_object();
    entry.set("count", static_cast<double>(v.size()));
    entry.set("p50_ms", percentile_sorted(v, 0.5));
    entry.set("p90_ms", percentile_sorted(v, 0.9));
    by_kind.set(kinds[k], std::move(entry));
  }
  run.set("latency_by_kind", std::move(by_kind));
  Metrics details;
  workload.describe(details);
  io::JsonValue detail_json = io::JsonValue::make_object();
  for (const auto& [name, value] : details) detail_json.set(name, value);
  run.set("details", std::move(detail_json));
  io::JsonValue failure_json = io::JsonValue::make_array();
  for (const auto& f : failures) failure_json.push_back(f);
  run.set("check_failures", std::move(failure_json));

  // ---- metrics -----------------------------------------------------------
  io::JsonValue metrics = io::JsonValue::make_object();
  if (!config.trace) {
    for (std::size_t i = 0; i < kEndToEndMetrics.size(); ++i) {
      metrics.set(kEndToEndMetrics[i].name,
                  metric_value(end_to_end[i], kEndToEndMetrics[i].unit));
    }
  } else {
    const double untraced_rate =
        static_cast<double>(ok_untraced) /
        (config.seconds - traced_slice_seconds(window_ns));
    const double traced_rate = static_cast<double>(ok_traced) /
                               traced_slice_seconds(window_ns);
    const double ops = static_cast<double>(std::max<std::uint64_t>(
        window.traced_ops, 1));
    double covered = 0.0;
    for (const auto& [name, ms] : window.layer_self_ms) {
      layer.emplace_back("self." + name + "_ms", ms / ops);
      if (name != "bench") covered += ms;
    }
    layer.emplace_back("trace.coverage",
                       window.traced_op_ms > 0.0 ? covered / window.traced_op_ms
                                                 : 0.0);
    layer.emplace_back("trace.op_ms", window.traced_op_ms / ops);
    layer.emplace_back("trace.traced_ops", static_cast<double>(window.traced_ops));
    layer.emplace_back("trace.ops_per_s_untraced", untraced_rate);
    layer.emplace_back("obs.trace_overhead_pct",
                       untraced_rate > 0.0
                           ? 100.0 * (untraced_rate - traced_rate) / untraced_rate
                           : 0.0);
    layer.emplace_back("util.cpu_util",
                       cpu_window / (config.seconds *
                                     static_cast<double>(config.workers)));
    for (const MetricSpec& spec : kLayerMetrics) {
      double value = 0.0;
      for (const auto& [name, v] : layer) {
        if (name == spec.name) value = v;
      }
      metrics.set(spec.name, metric_value(value, spec.unit));
    }
    if (!config.trace_out.empty()) write_chrome_trace(config.trace_out, workers);
  }

  io::JsonValue record = io::JsonValue::make_object();
  record.set("perfbench_run", std::move(run));
  std::printf("%s\n", record.dump().c_str());

  io::JsonValue result = io::JsonValue::make_object();
  result.set("correct", failures.empty());
  result.set("attempted", static_cast<double>(tally.attempted()));
  result.set("failed", static_cast<double>(tally.failed()));
  result.set("metrics", std::move(metrics));
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace perfbench
