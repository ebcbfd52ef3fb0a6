// Workload `stream`: one op is one decision cycle of the online control
// loop — the events and ticks from one published plan to the next. Each
// worker runs independent sessions, each replaying one scripted
// growth + churn + seeding + drift log, decoded from a binary event file
// with stream::load_event_log, through a StreamEngine whose planner
// runs on an iteration budget (never a wall-clock one, so the decision
// trace is deterministic). When a log ends the worker starts a new
// session on its next log, cycling through kLogsPerWorker of them;
// every replay of a log must reproduce the decision trace and end state
// of its first replay. Logs differ in size (LogShape), so cycle costs
// span a continuous range.
#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "checks.hpp"
#include "harness.hpp"
#include "stats.hpp"
#include "stream/engine.hpp"
#include "stream/event.hpp"
#include "stream/scenario.hpp"

namespace perfbench {

namespace {

namespace stream = rumor::stream;

enum Kind { kCycle = 0, kSessionStart = 1 };
enum TickKind { kPlain = 0, kRefit = 1, kReplan = 2 };
constexpr const char* kTickNames[] = {"plain", "refit", "replan"};

// Fresh outbreaks keep the rumor alive for the whole log, so every
// session publishes a plan every replan_every ticks from its first plan
// to its end, whatever the seed; with one outbreak the controller
// extinguishes it after 30–170 ticks and the cycle count per log varies
// fivefold between seeds.
constexpr std::size_t kReseedEvery = 20;  // ticks

// Logs differ in cost: one set of four ran 20% more cycles per second
// than the runs beside it in time. So each worker cycles through several
// logs (a log takes ~0.1–0.4 s), and a run averages over 32 of them.
constexpr std::size_t kLogsPerWorker = 8;

/// Graph sizes of one log, all scaled from the stream bench suite's
/// scenario (2000-node universe, 500 initial nodes, 4 new nodes and 2
/// churned edges per tick, 10-node outbreaks). At one size every cycle
/// costs about the same, and the cycle latencies form one narrow mode
/// per core speed state: p50 jumps between the modes as the share of
/// fast cycles crosses one half. So log j of the n in a run gets the
/// scale kMinScale·(kMaxScale/kMinScale)^(j/(n−1)), the same on every
/// seed. Tick time grows with the graph, and cycle costs fill a
/// continuous ~3× range.
struct LogShape {
  std::size_t nodes;
  std::size_t initial_nodes;
  std::size_t grow_per_tick;
  std::size_t churn_per_tick;
  std::size_t outbreak;  ///< nodes per outbreak
};
constexpr double kMinScale = 0.5;
constexpr double kMaxScale = 4.0;

LogShape log_shape(std::size_t log, std::size_t logs) {
  const double position =
      logs > 1 ? static_cast<double>(log) / static_cast<double>(logs - 1) : 0.0;
  const double scale = kMinScale * std::pow(kMaxScale / kMinScale, position);
  const auto sized = [scale](double base) {
    return std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(base * scale)));
  };
  return {sized(2000), sized(500), sized(4), sized(2), sized(10)};
}

/// The stream bench suite's scenario at `shape`'s sizes, run for 240
/// ticks (45 decision cycles per session, so the cycle that spans a
/// session restart, with its decode and engine construction, is one op
/// in 45) with an outbreak every kReseedEvery ticks.
std::vector<stream::Event> scripted_log(const LogShape& shape, std::uint64_t seed) {
  stream::ScenarioSpec spec;
  spec.num_nodes = shape.nodes;
  spec.initial_nodes = shape.initial_nodes;
  spec.ticks = 240;
  spec.grow_per_tick = shape.grow_per_tick;
  spec.churn_per_tick = shape.churn_per_tick;
  spec.seed_tick = 10;
  spec.seed_count = shape.outbreak;
  spec.drift_tick = 120;
  spec.drift_lambda_scale = 2.0;
  spec.seed = seed;
  util::Xoshiro256 rng(util::hash_mix(seed, 31));
  std::vector<stream::Event> events;
  std::size_t tick = 0;
  for (stream::Event& event : stream::make_scenario(spec)) {
    if (event.kind == stream::EventKind::kTick) {
      if (tick > spec.seed_tick && (tick - spec.seed_tick) % kReseedEvery == 0) {
        stream::Event outbreak;
        outbreak.kind = stream::EventKind::kSeedInfect;
        const std::size_t active =
            std::min(spec.num_nodes, spec.initial_nodes + spec.grow_per_tick * tick);
        for (std::size_t k = 0; k < shape.outbreak; ++k) {
          outbreak.nodes.push_back(
              static_cast<rumor::graph::NodeId>(rng.uniform_index(active)));
        }
        events.push_back(std::move(outbreak));
      }
      ++tick;
    }
    events.push_back(std::move(event));
  }
  return events;
}

stream::StreamConfig engine_config(std::size_t nodes) {
  stream::StreamConfig config;
  config.num_nodes = nodes;
  config.planner.budget_iterations = 60;
  config.planner.cost.terminal_weight = 50.0;
  return config;
}

std::string log_path(std::size_t worker, std::size_t log) {
  return "events-" + std::to_string(worker) + "-" + std::to_string(log) + ".bin";
}

/// A log's first replay in the run, which every later replay must match.
struct Reference {
  bool set = false;
  std::uint32_t decision_crc = 0;
  std::uint32_t state_crc = 0;
};

/// Per-worker tallies of traced ticks (each slot written by its thread).
struct TickTally {
  std::vector<double> tick_ms[3];
  double tick_self_ms = 0.0;
  std::uint64_t ticks = 0;
  std::vector<double> refit_ms;
  std::vector<double> replan_ms;
  std::uint64_t ingest_events = 0;
  std::uint64_t sessions = 0;
};

class StreamWorkload final : public Workload {
 public:
  std::vector<std::string> kind_names() const override {
    return {"cycle", "session_start"};
  }

  void setup(const RunConfig& config) override {
    references_.assign(config.workers, std::vector<Reference>(kLogsPerWorker));
    tallies_.assign(config.workers, {});
    log_events_.assign(config.workers, 0);
    // Worker w's log l is log w + workers·l of the run, so every worker
    // gets small and large logs alike.
    const std::size_t logs = config.workers * kLogsPerWorker;
    shapes_.assign(config.workers, {});
    for (std::size_t w = 0; w < config.workers; ++w) {
      for (std::size_t log = 0; log < kLogsPerWorker; ++log) {
        shapes_[w].push_back(log_shape(w + config.workers * log, logs));
      }
    }
    // Each worker writes its own logs, then replays its first one: that
    // warms the code paths before the ramp.
    std::vector<std::thread> threads;
    std::vector<std::string> errors(config.workers);
    for (std::size_t w = 0; w < config.workers; ++w) {
      threads.emplace_back([&, w] {
        try {
          for (std::size_t log = 0; log < kLogsPerWorker; ++log) {
            const auto events =
                scripted_log(shapes_[w][log],
                             util::hash_mix(config.seed, w * kLogsPerWorker + log));
            stream::save_event_log(events, log_path(w, log),
                                   stream::EventLogWriter::Format::kBinary);
            log_events_[w] += events.size();
          }
          stream::StreamEngine engine(engine_config(shapes_[w][0].nodes));
          for (const auto& event : stream::load_event_log(log_path(w, 0))) {
            engine.apply(event);
          }
        } catch (const std::exception& e) {
          errors[w] = e.what();
        }
      });
    }
    for (auto& thread : threads) thread.join();
    for (const auto& error : errors) {
      if (!error.empty()) throw std::runtime_error("stream set-up: " + error);
    }
  }

  void teardown() override {}

  void work(Worker& worker) override {
    const std::size_t w = worker.index();
    TickTally& tally = tallies_[w];
    int kind = kSessionStart;
    worker.begin_op();
    for (std::size_t log = 0; worker.running(); log = (log + 1) % kLogsPerWorker) {
      std::vector<stream::Event> events;
      {
        auto span = worker.span("io.event_decode", "io");
        events = stream::load_event_log(log_path(w, log));
      }
      auto engine =
          std::make_unique<stream::StreamEngine>(engine_config(shapes_[w][log].nodes));
      std::size_t i = 0;
      while (i < events.size()) {
        if (!worker.running()) return;  // abandon the session mid-log
        if (events[i].kind != stream::EventKind::kTick) {
          const bool traced = worker.op_traced();
          auto span = worker.span("stream.ingest", "stream");
          const std::size_t first = i;
          for (; i < events.size() && events[i].kind != stream::EventKind::kTick; ++i) {
            engine->apply(events[i]);
          }
          if (traced) tally.ingest_events += i - first;
          continue;
        }
        const bool traced = worker.op_traced();
        const std::size_t refits = engine->refit_ms().size();
        const std::size_t plans = engine->plan_ms().size();
        const std::int64_t t0 = worker.now_ns();
        {
          auto span = worker.span("stream.tick", "stream");
          engine->apply(events[i++]);
          if (engine->refit_ms().size() > refits) {
            worker.add_measured_child("stream.refit", "core",
                                      engine->refit_ms().back());
          }
          if (engine->plan_ms().size() > plans) {
            worker.add_measured_child("stream.replan", "control",
                                      engine->plan_ms().back());
          }
        }
        if (traced) {
          const double ms = static_cast<double>(worker.now_ns() - t0) * 1e-6;
          double self = ms;
          TickKind tick_kind = kPlain;
          if (engine->refit_ms().size() > refits) {
            self -= engine->refit_ms().back();
            tally.refit_ms.push_back(engine->refit_ms().back());
            tick_kind = kRefit;
          }
          if (engine->plan_ms().size() > plans) {
            self -= engine->plan_ms().back();
            tally.replan_ms.push_back(engine->plan_ms().back());
            tick_kind = kReplan;
          }
          tally.tick_ms[tick_kind].push_back(ms);
          tally.tick_self_ms += self;
          ++tally.ticks;
        }
        if (engine->decisions().back().replanned) {
          worker.end_op(kind, true);
          kind = kCycle;
          worker.begin_op();
        }
      }
      Reference& ref = references_[w][log];
      if (!ref.set) {
        ref = {true, engine->decision_crc(), engine->state_crc()};
      } else {
        const std::string verdict = check_replay(ref.decision_crc, ref.state_crc,
                                                 engine->decision_crc(),
                                                 engine->state_crc());
        if (!verdict.empty()) worker.fail_check(verdict);
      }
      ++tally.sessions;
      kind = kSessionStart;
    }
  }

  void layer_metrics(WindowSummary& window, Metrics& out) override {
    const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    const auto mean = [&](const std::vector<double>& v) {
      double sum = 0.0;
      for (double x : v) sum += x;
      return ratio(sum, static_cast<double>(v.size()));
    };
    std::vector<double> ticks, refits, replans;
    double self_ms = 0.0, tick_count = 0.0, ingest_events = 0.0;
    for (auto& t : tallies_) {
      for (const auto& v : t.tick_ms) ticks.insert(ticks.end(), v.begin(), v.end());
      refits.insert(refits.end(), t.refit_ms.begin(), t.refit_ms.end());
      replans.insert(replans.end(), t.replan_ms.begin(), t.replan_ms.end());
      self_ms += t.tick_self_ms;
      tick_count += static_cast<double>(t.ticks);
      ingest_events += static_cast<double>(t.ingest_events);
    }
    std::sort(ticks.begin(), ticks.end());
    const auto span_total = [&](const char* name) {
      const auto it = window.span_ms.find(name);
      return it == window.span_ms.end() ? std::make_pair(std::uint64_t{0}, 0.0)
                                        : it->second;
    };
    out.emplace_back("stream.ingest_us_per_event",
                     ratio(1e3 * span_total("stream.ingest").second, ingest_events));
    out.emplace_back("stream.tick_p50_ms", percentile_sorted(ticks, 0.50));
    out.emplace_back("stream.tick_p99_ms", percentile_sorted(ticks, 0.99));
    out.emplace_back("stream.tick_self_ms", ratio(self_ms, tick_count));
    const double engine_ticks = static_cast<double>(window.counter_delta("stream.ticks"));
    out.emplace_back("stream.rebuilds_per_tick",
                     ratio(static_cast<double>(window.counter_delta("stream.rebuilds")),
                           engine_ticks));
    out.emplace_back("stream.refit_ms", mean(refits));
    out.emplace_back("stream.replan_ms", mean(replans));
    const double refit_ok = static_cast<double>(window.counter_delta("stream.refits"));
    const double refit_failed =
        static_cast<double>(window.counter_delta("stream.refit_failures"));
    out.emplace_back("stream.refit_fail_ratio",
                     ratio(refit_failed, refit_ok + refit_failed));
    const double plan_attempts =
        static_cast<double>(window.histogram_delta("stream.plan_ms").second);
    out.emplace_back("stream.deadline_miss_ratio",
                     ratio(static_cast<double>(window.counter_delta("stream.deadline_miss")),
                           plan_attempts));
    const auto decode = span_total("io.event_decode");
    out.emplace_back("io.event_decode_ms",
                     ratio(decode.second, static_cast<double>(decode.first)));
    out.emplace_back("control.iterations_per_solve",
                     ratio(static_cast<double>(window.counter_delta("fbsm.iterations")),
                           plan_attempts));
    const double cycles = static_cast<double>(window.ops_ok);
    // Refits and replans make every RHS evaluation here, so their
    // engine-timed share of a traced cycle is the time behind them.
    const double evals_per_cycle =
        ratio(static_cast<double>(window.counter_delta("ode.rhs_evals")), cycles);
    double ode_ms = 0.0;
    for (const double ms : refits) ode_ms += ms;
    for (const double ms : replans) ode_ms += ms;
    out.emplace_back("ode.rhs_evals_per_op", evals_per_cycle);
    out.emplace_back("ode.ns_per_rhs_eval",
                     ratio(1e6 * ratio(ode_ms, static_cast<double>(window.traced_ops)),
                           evals_per_cycle));
    const double steps = static_cast<double>(window.counter_delta("sim.steps"));
    out.emplace_back("sim.steps_per_op", ratio(steps, cycles));
    out.emplace_back("sim.edges_per_step",
                     ratio(static_cast<double>(window.counter_delta("sim.edges_scanned")),
                           steps));
    out.emplace_back("sim.infections_per_op",
                     ratio(static_cast<double>(window.counter_delta("sim.infections")),
                           cycles));
    ticks_by_kind_.clear();
    for (int k = 0; k < 3; ++k) {
      std::vector<double> v;
      for (auto& t : tallies_) v.insert(v.end(), t.tick_ms[k].begin(), t.tick_ms[k].end());
      std::sort(v.begin(), v.end());
      ticks_by_kind_.push_back(std::move(v));
    }
  }

  void describe(Metrics& out) const override {
    std::uint64_t sessions = 0, events = 0;
    for (const auto& t : tallies_) sessions += t.sessions;
    for (const auto e : log_events_) events += e;
    out.emplace_back("logs", static_cast<double>(log_events_.size() * kLogsPerWorker));
    out.emplace_back("log_events_mean",
                     log_events_.empty() ? 0.0
                                         : static_cast<double>(events) /
                                               static_cast<double>(log_events_.size() *
                                                                   kLogsPerWorker));
    out.emplace_back("sessions_completed", static_cast<double>(sessions));
    for (std::size_t k = 0; k < ticks_by_kind_.size(); ++k) {
      const auto& v = ticks_by_kind_[k];
      const std::string name = std::string("tick_") + kTickNames[k];
      out.emplace_back(name + "_count", static_cast<double>(v.size()));
      out.emplace_back(name + "_p50_ms", v.empty() ? 0.0 : percentile_sorted(v, 0.5));
      out.emplace_back(name + "_p90_ms", v.empty() ? 0.0 : percentile_sorted(v, 0.9));
    }
  }

 private:
  std::vector<std::vector<Reference>> references_;  ///< [worker][log]
  std::vector<std::vector<LogShape>> shapes_;       ///< [worker][log]
  std::vector<std::size_t> log_events_;             ///< per worker: Σ log events
  std::vector<TickTally> tallies_;
  std::vector<std::vector<double>> ticks_by_kind_;
};

}  // namespace

std::unique_ptr<Workload> make_stream_workload() {
  return std::make_unique<StreamWorkload>();
}

}  // namespace perfbench
