// Workload `simulate`: one op is one rumord `simulate` job, from submit
// to result over the line protocol. The daemon runs in this process on
// a Unix socket with one worker per core, and each benchmark worker
// keeps one persistent client connection. Jobs step the frontier agent
// engine on a Digg-scale Barabási–Albert graph (Moreno–Nekovee–Pacheco's
// Monte-Carlo-on-scale-free-graph setting). Most read the packed
// GRAPHCSR file; a minority rerun the previous spec on the same graph
// stored as GRAPHCSZ with the node order kept, which must end in the
// same per-node state.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>

#include "checks.hpp"
#include "graph/generators.hpp"
#include "harness.hpp"
#include "io/graph_binary.hpp"
#include "io/graph_compressed.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace serve = rumor::serve;

// Digg2009's node count (data/digg.hpp) at m = 12, i.e. ⟨k⟩ ≈ 24.
constexpr std::size_t kNodes = 71'367;
constexpr std::size_t kEdgesPerNode = 12;
constexpr const char* kPackedPath = "ba.csr";
constexpr const char* kCompressedPath = "ba.csz";
constexpr const char* kSocketPath = "rumord.sock";
constexpr double kJobTimeoutSeconds = 120.0;
// Every second packed job is followed by its GRAPHCSZ twin, so twins,
// the slowest kind, are a third of all jobs: p90 lands at their 70th
// percentile and p50 at the packed jobs' 75th. The share is dealt, not
// drawn, because p90 moves with it. At a fifth of all jobs p90 sits at
// the twins' median, where their latencies are sparse enough that the
// percentile guard flagged one run in ten.
constexpr std::size_t kPackedPerTwin = 2;
// Job lengths are drawn from this range. On the 4-vCPU VM the benchmark
// was built on, each core runs in a fast or a slow state for seconds at
// a time, ~1.35x apart. With every job
// the same length (t_end 5), job latencies formed two narrow modes, one
// per state, and p50 jumped from one to the other as the share of fast
// time crossed one half: 71 vs 94 ms for packed jobs between runs whose
// throughput differed 20%. Lengths that vary more than the two states
// make one continuous distribution, whose median moves with that share
// as the mean does. Wider ranges (2.5..7.5, 3.5..6.5) thinned the tail
// around p90 until the percentile guard flagged it.
constexpr double kMinHorizon = 4.0;
constexpr double kMaxHorizon = 6.0;

enum Kind { kPacked = 0, kCompressed = 1 };

io::JsonValue draw_spec(util::Xoshiro256& rng) {
  io::JsonValue spec = io::JsonValue::make_object();
  spec.set("graph", kPackedPath);
  spec.set("engine", "frontier");
  spec.set("seed", static_cast<double>(rng.uniform_index(1ull << 40)));
  spec.set("t_end", rng.uniform(kMinHorizon, kMaxHorizon));
  spec.set("dt", 0.1);
  spec.set("initial_infected", 20.0);
  spec.set("eps1", rng.uniform(0.02, 0.1));
  spec.set("eps2", rng.uniform(0.02, 0.1));
  return spec;
}

class SimulateWorkload final : public Workload {
 public:
  std::vector<std::string> kind_names() const override {
    return {"packed", "compressed"};
  }

  void setup(const RunConfig& config) override {
    util::Xoshiro256 rng(util::hash_mix(config.seed, 23));
    const auto graph = rumor::graph::barabasi_albert(kNodes, kEdgesPerNode, rng);
    io::save_graph(graph, kPackedPath);
    io::save_graph_compressed(graph, kCompressedPath);
    bytes_ratio_ = static_cast<double>(fs::file_size(kCompressedPath)) /
                   static_cast<double>(fs::file_size(kPackedPath));
    arcs_ = static_cast<double>(graph.num_arcs());
    if (config.trace) {
      const auto t0 = Clock::now();
      (void)io::load_graph(kPackedPath);
      const auto t1 = Clock::now();
      (void)io::load_compressed_graph(kCompressedPath);
      const auto t2 = Clock::now();
      packed_load_ms_ = std::chrono::duration<double, std::milli>(t1 - t0).count();
      compressed_load_ms_ = std::chrono::duration<double, std::milli>(t2 - t1).count();
    }

    serve::ServerOptions options;
    options.unix_path = kSocketPath;
    options.io_timeout_seconds = kJobTimeoutSeconds;
    options.scheduler.workers = config.workers;
    options.scheduler.job_root = "jobs";
    server_ = std::make_unique<serve::Server>(std::move(options));
    server_->start();
    for (std::size_t w = 0; w < config.workers; ++w) {
      clients_.push_back(serve::Client::connect_unix(kSocketPath));
      clients_.back().set_timeout(kJobTimeoutSeconds);
    }
    // Cache warm-up: the first job on each file loads it. The spec is
    // fixed, so set-up does the same work on every seed.
    util::Xoshiro256 warmup_rng(1);
    io::JsonValue spec = draw_spec(warmup_rng);
    const auto packed = clients_[0].submit("simulate", spec);
    spec.set("graph", kCompressedPath);
    const auto compressed = clients_[0].submit("simulate", spec);
    const auto timeout = std::chrono::milliseconds(
        static_cast<std::int64_t>(kJobTimeoutSeconds * 1000));
    for (const auto id : {packed, compressed}) {
      const io::JsonValue job = clients_[0].wait(id, timeout);
      if (job.string_or("state", "") != "done") {
        throw std::runtime_error("simulate: warm-up job failed: " + job.dump());
      }
    }
    rejected_.assign(config.workers, 0);
  }

  void teardown() override {
    clients_.clear();
    if (server_ != nullptr) {
      server_->stop();
      server_->wait();
      server_.reset();
    }
    std::error_code ec;
    for (const char* path : {kPackedPath, kCompressedPath, "jobs"}) {
      fs::remove_all(path, ec);
    }
  }

  void work(Worker& worker) override {
    serve::Client& client = clients_[worker.index()];
    const auto timeout = std::chrono::milliseconds(
        static_cast<std::int64_t>(kJobTimeoutSeconds * 1000));
    std::optional<io::JsonValue> twin;  // last packed spec, not yet rerun
    std::uint32_t twin_crc = 0;
    std::size_t packed = 0;  // packed jobs since the last twin
    while (worker.running()) {
      const bool compressed = twin.has_value() && packed >= kPackedPerTwin;
      io::JsonValue spec = compressed ? *twin : draw_spec(worker.rng());
      if (compressed) spec.set("graph", kCompressedPath);
      const Kind kind = compressed ? kCompressed : kPacked;
      io::JsonValue job;
      worker.begin_op();
      try {
        std::uint64_t id = 0;
        {
          auto span = worker.span("serve.submit", "serve");
          id = client.submit("simulate", spec);
        }
        auto span = worker.span("serve.wait", "serve");
        job = client.wait(id, timeout);
      } catch (const std::exception& e) {
        // Refused or lost: a failed op, and a wrong answer, since the
        // workload keeps the daemon within its queue bound.
        worker.end_op(kind, false);
        worker.fail_check(std::string("simulate: job refused or lost: ") + e.what());
        ++rejected_[worker.index()];
        twin.reset();
        continue;
      }
      const bool done = job.string_or("state", "") == "done";
      worker.end_op(kind, done);
      if (!done) {
        worker.fail_check("simulate: job did not finish: " + job.dump());
        twin.reset();
        continue;
      }
      const io::JsonValue& result = *job.find("result");
      const std::string census = check_census(
          result.number_or("susceptible", -1), result.number_or("infected", -1),
          result.number_or("recovered", -1), result.number_or("nodes", -1));
      if (!census.empty()) worker.fail_check(census);
      const auto crc = static_cast<std::uint32_t>(result.number_or("state_crc", -1));
      if (compressed) {
        const std::string verdict = check_twin_crc(twin_crc, crc);
        if (!verdict.empty()) worker.fail_check(verdict);
        twin.reset();
        packed = 0;
      } else {
        twin = std::move(spec);
        twin_crc = crc;
        ++packed;
      }
    }
  }

  void layer_metrics(WindowSummary& window, Metrics& out) override {
    const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    const auto mean_span = [&](const char* name) {
      const auto it = window.span_ms.find(name);
      return it == window.span_ms.end()
                 ? 0.0
                 : ratio(it->second.second, static_cast<double>(it->second.first));
    };
    const auto [queue_sum, queue_count] =
        window.histogram_delta("serve.queue.latency_ms");
    const auto [run_sum, run_count] = window.histogram_delta("serve.job.duration_ms");
    const double run_ms = ratio(run_sum, static_cast<double>(run_count));
    double latency_sum = 0.0, latency_count = 0.0;
    for (const auto& kind : window.kind_latency_ms) {
      for (double ms : kind) latency_sum += ms;
      latency_count += static_cast<double>(kind.size());
    }
    const double hits = static_cast<double>(window.counter_delta("serve.cache.hits"));
    const double misses =
        static_cast<double>(window.counter_delta("serve.cache.misses"));
    std::uint64_t rejected = 0;
    for (const auto r : rejected_) rejected += r;
    out.emplace_back("serve.rtt_ms", mean_span("serve.submit"));
    out.emplace_back("serve.queue_wait_ms",
                     ratio(queue_sum, static_cast<double>(queue_count)));
    out.emplace_back("serve.run_ms", run_ms);
    out.emplace_back("serve.overhead_ms", ratio(latency_sum, latency_count) - run_ms);
    out.emplace_back("serve.cache_hit_ratio", ratio(hits, hits + misses));
    out.emplace_back("serve.rejected",
                     static_cast<double>(window.counter_delta("serve.jobs.rejected") +
                                         rejected));
    out.emplace_back("io.graph_load_ms", packed_load_ms_);
    out.emplace_back("io.graph_bytes_ratio", bytes_ratio_);
    const auto median_of = [](const std::vector<double>& v) {
      return v.empty() ? 0.0 : v[v.size() / 2];
    };
    out.emplace_back("graph.packed_op_ms", median_of(window.kind_latency_ms[kPacked]));
    out.emplace_back("graph.compressed_op_ms",
                     median_of(window.kind_latency_ms[kCompressed]));
    const double jobs = static_cast<double>(run_count);
    const double steps = static_cast<double>(window.counter_delta("sim.steps"));
    out.emplace_back("sim.steps_per_op", ratio(steps, jobs));
    out.emplace_back("sim.edges_per_step",
                     ratio(static_cast<double>(window.counter_delta("sim.edges_scanned")),
                           steps));
    out.emplace_back("sim.us_per_step", ratio(1e3 * run_sum, steps));
    out.emplace_back("sim.infections_per_op",
                     ratio(static_cast<double>(window.counter_delta("sim.infections")),
                           jobs));
    // The daemon's run time sits inside the client's wait span, and the
    // registry gives it only as a window mean over all jobs. Split the
    // client spans' time by the run share of client latency over the
    // same jobs; a traced subset's own mix would bias a subtraction.
    const double run_share = std::min(1.0, ratio(run_ms, ratio(latency_sum, latency_count)));
    const double client_ms = window.layer_self_ms["serve"];
    window.layer_self_ms["serve"] = (1.0 - run_share) * client_ms;
    window.layer_self_ms["sim"] = run_share * client_ms;
  }

  void describe(Metrics& out) const override {
    out.emplace_back("graph_nodes", static_cast<double>(kNodes));
    out.emplace_back("graph_arcs", arcs_);
    out.emplace_back("compressed_load_ms", compressed_load_ms_);
    out.emplace_back("packed_per_twin", static_cast<double>(kPackedPerTwin));
  }

 private:
  std::unique_ptr<serve::Server> server_;
  std::vector<serve::Client> clients_;
  std::vector<std::uint64_t> rejected_;  ///< per worker: refused or lost jobs
  double bytes_ratio_ = 0.0;
  double arcs_ = 0.0;
  double packed_load_ms_ = 0.0;
  double compressed_load_ms_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_simulate_workload() {
  return std::make_unique<SimulateWorkload>();
}

}  // namespace perfbench
