// Closed-loop harness: one worker thread per core, each sending its
// next op only after the previous one completed. Untraced runs give the
// end-to-end metrics; traced runs record spans around the benchmark's
// own calls into each layer and give the per-layer metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "io/json.hpp"
#include "obs/metrics.hpp"
#include "util/random.hpp"

namespace perfbench {

namespace io = rumor::io;
namespace obs = rumor::obs;
namespace util = rumor::util;

using Clock = std::chrono::steady_clock;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace JSON written at exit ("" = none)
  std::string commit;     ///< source identity recorded with the run
  std::size_t workers = 1;
};

/// One call the benchmark made into a layer, in ns since window start.
struct Span {
  const char* name = "";   ///< string literal
  const char* layer = "";  ///< module name; "bench" for the op itself
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  std::int32_t parent = -1;  ///< index into the worker's spans
  std::uint64_t op = 0;
};

struct OpRecord {
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  std::uint64_t op = 0;
  int kind = 0;
  bool ok = true;
  bool traced = false;
};

/// Per-thread state handed to Workload::work. Everything here is
/// touched by its own thread only.
class Worker {
 public:
  Worker(std::size_t index, std::uint64_t seed, Clock::time_point start,
         Clock::time_point end, bool trace);

  std::size_t index() const { return index_; }
  util::Xoshiro256& rng() { return rng_; }
  std::int64_t now_ns() const;
  /// True until the timed window closes; workers start no op after it.
  bool running() const { return Clock::now() < end_; }

  /// Open an op (and, in a traced slice, its root span).
  void begin_op();
  /// Close the open op. A failed op counts as attempted and failed.
  void end_op(int kind, bool ok);
  bool op_traced() const { return op_traced_; }
  bool op_open() const { return op_open_; }

  /// RAII span around one call into a layer; free when not traced.
  class Scope {
   public:
    Scope(Worker& worker, const char* name, const char* layer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Worker* worker_ = nullptr;
    std::int32_t index_ = -1;
  };
  Scope span(const char* name, const char* layer) {
    return Scope(*this, name, layer);
  }
  /// A child of the innermost open span whose duration the program
  /// measured itself (engine timers); placed at the parent's start.
  void add_measured_child(const char* name, const char* layer,
                          double duration_ms);

  /// Record a wrong output; the run reports correct = false.
  void fail_check(const std::string& reason);

  const std::vector<OpRecord>& ops() const { return ops_; }
  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& check_failures() const {
    return check_failures_;
  }

 private:
  std::int32_t open_span(const char* name, const char* layer);
  void close_span(std::int32_t index);

  std::size_t index_;
  util::Xoshiro256 rng_;
  Clock::time_point start_;
  Clock::time_point end_;
  bool trace_;
  std::uint64_t next_op_ = 0;
  std::int64_t op_t0_ = 0;
  std::uint64_t op_id_ = 0;
  bool op_traced_ = false;
  bool op_open_ = false;
  std::int32_t open_ = -1;  ///< innermost open span
  std::vector<OpRecord> ops_;
  std::vector<Span> spans_;
  std::vector<std::string> check_failures_;
};

/// Named metric values in insertion order.
using Metrics = std::vector<std::pair<std::string, double>>;

/// What a finished window measured, handed to Workload::layer_metrics.
struct WindowSummary {
  std::uint64_t ops_ok = 0;
  /// In-window ops whose root span was recorded.
  std::uint64_t traced_ops = 0;
  double traced_op_ms = 0.0;  ///< Σ root span wall over traced ops
  /// Per layer: Σ self time (span minus its children) over traced ops.
  std::map<std::string, double> layer_self_ms;
  /// Per span name: count and Σ wall over traced ops.
  std::map<std::string, std::pair<std::uint64_t, double>> span_ms;
  /// Per op kind: ascending latencies of the ok in-window ops.
  std::vector<std::vector<double>> kind_latency_ms;
  obs::MetricsSnapshot before;  ///< registry at window start
  obs::MetricsSnapshot after;   ///< registry at window end

  std::uint64_t counter_delta(const char* name) const;
  /// Σ and count added to a histogram during the window.
  std::pair<double, std::uint64_t> histogram_delta(const char* name) const;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Display names of the op kinds passed to Worker::end_op.
  virtual std::vector<std::string> kind_names() const = 0;
  /// Build everything the timed window needs (inputs, models, graphs,
  /// daemon, warm caches). Runs in the run's temp dir.
  virtual void setup(const RunConfig& config) = 0;
  /// Undo setup; the harness times several setups per run.
  virtual void teardown() = 0;
  /// One worker's closed loop; return once worker.running() is false.
  virtual void work(Worker& worker) = 0;
  /// Output checks too costly to run inside the loop, for the ops
  /// `worker` ran. Called once per worker, concurrently, after the
  /// window has closed and its counters were read, and before teardown.
  virtual void check(Worker& /*worker*/) {}
  /// Per-layer metrics of a traced window (see metrics.hpp for names).
  /// May move self time that the program measured inside a span (engine
  /// timers, registry histograms) to the layer that spent it.
  virtual void layer_metrics(WindowSummary& window, Metrics& out) = 0;
  /// Free-form details for the run record (graph sizes, log lengths).
  virtual void describe(Metrics& /*out*/) const {}
};

/// Move the calling thread onto the n-th core it may run on (mod the
/// count), then restore its affinity mask: the thread stays where it
/// landed, and threads it starts later inherit the unrestricted mask.
void hop_to_core(std::size_t n);

std::unique_ptr<Workload> make_plan_workload();
std::unique_ptr<Workload> make_simulate_workload();
std::unique_ptr<Workload> make_stream_workload();

/// Run `workload` per `config`; prints the run record line and the
/// result line to stdout. Returns the process exit code.
int run_benchmark(Workload& workload, const RunConfig& config);

}  // namespace perfbench
