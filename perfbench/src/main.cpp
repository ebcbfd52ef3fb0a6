// perfbench: the repository's end-to-end benchmark (see ../README.md).
//
//   perfbench --workload plan|simulate|stream --seed N --seconds S
//             --trace 0|1 [--trace-out FILE] [--tmp-dir DIR] [--commit ID]
//   perfbench --list-metrics
//
// Prints one run-record line, then the result line the benchmark
// contract defines: {"correct", "attempted", "failed", "metrics"}.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>

#include "harness.hpp"
#include "metrics.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"

namespace {

namespace fs = std::filesystem;

/// The run's inputs, daemon socket and job root live here; it is
/// removed on every exit path that unwinds.
class TempDir {
 public:
  explicit TempDir(const std::string& parent) : home_(fs::current_path()) {
    fs::create_directories(parent);
    std::string pattern = (fs::absolute(parent) / "run-XXXXXX").string();
    if (mkdtemp(pattern.data()) == nullptr) {
      throw std::runtime_error("perfbench: cannot create a temp dir in " + parent);
    }
    path_ = pattern;
    // Relative names keep the daemon's socket path short however deep
    // the checkout is.
    fs::current_path(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::current_path(home_, ec);
    fs::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

 private:
  fs::path home_;
  fs::path path_;
};

template <std::size_t N>
rumor::io::JsonValue metric_list(const std::array<perfbench::MetricSpec, N>& table) {
  rumor::io::JsonValue list = rumor::io::JsonValue::make_array();
  for (const auto& spec : table) {
    rumor::io::JsonValue entry = rumor::io::JsonValue::make_object();
    entry.set("name", spec.name);
    entry.set("unit", spec.unit);
    list.push_back(std::move(entry));
  }
  return list;
}

int list_metrics() {
  rumor::io::JsonValue out = rumor::io::JsonValue::make_object();
  out.set("end_to_end", metric_list(perfbench::kEndToEndMetrics));
  out.set("per_layer", metric_list(perfbench::kLayerMetrics));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--list-metrics") return list_metrics();
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: bad argument '%s'\n", key.c_str());
      return 2;
    }
    args[key.substr(2)] = argv[++i];
  }
  try {
    perfbench::RunConfig config;
    config.workload = args["workload"];
    config.seed = std::stoull(args.count("seed") ? args["seed"] : "1");
    config.seconds = std::stod(args.count("seconds") ? args["seconds"] : "10");
    config.trace = args.count("trace") && args["trace"] != "0";
    config.trace_out = args["trace-out"];
    config.commit = args["commit"];
    // One closed-loop worker per core; every op single-threaded, so
    // parallel regions inside the engines run inline.
    config.workers = std::max(1u, std::thread::hardware_concurrency());
    rumor::util::set_num_threads(1);
    // Solver non-convergence warnings are expected (PG runs to its
    // iteration cap) and would only serialize the workers on stderr.
    rumor::util::set_log_level(rumor::util::LogLevel::kError);
    if (config.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
    if (!config.trace_out.empty()) {
      config.trace_out = fs::absolute(config.trace_out).string();
    }

    // Declared before the workload so that, on an error path, the
    // workload (and any daemon it runs) is gone before its directory.
    std::unique_ptr<TempDir> temp;
    std::unique_ptr<perfbench::Workload> workload;
    if (config.workload == "plan") workload = perfbench::make_plan_workload();
    if (config.workload == "simulate") workload = perfbench::make_simulate_workload();
    if (config.workload == "stream") workload = perfbench::make_stream_workload();
    if (workload == nullptr) {
      std::fprintf(stderr, "perfbench: unknown --workload '%s'\n",
                   config.workload.c_str());
      return 2;
    }
    temp = std::make_unique<TempDir>(args.count("tmp-dir") ? args["tmp-dir"] : ".");
    return perfbench::run_benchmark(*workload, config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
