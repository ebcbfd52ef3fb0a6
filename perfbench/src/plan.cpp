// Workload `plan`: one op is one planning request, issued the way one
// of the two planning callers issues it:
//   * a rumord `plan` job: control::solve_optimal_control, FBSM or
//     projected gradient, at the job runner's defaults
//     (serve/runners.cpp: tf 20, 101 knots, 4 substeps, 200 iterations,
//     terminal weight 1, i0 0.1);
//   * `rumorctl plan-sweep --tf 20`: a 7-lane budget frontier through
//     control::solve_optimal_control_batch at plan-sweep's defaults
//     (examples/rumorctl.cpp: 20 substeps, 800 iterations, j_tol 1e-6,
//     terminal weight 50, i0 0.2, budgets 0.1..0.7) on its own flag
//     --tf 20, i.e. 101 knots. At the default tf 60 one frontier takes
//     5-10 s on one core, so a 35-s window would hold about 18 of them.
// Requests run on the Digg surrogate profile coarsened to a group count
// drawn from both sides of the ~25-group point where per-solve SIMD
// starts to pay. Every schedule a request returns is replayed and
// checked after the window closes (Workload::check), so the checks take
// no worker time from the window and add nothing to its counters.
#include <algorithm>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "checks.hpp"
#include "control/batch_sweep.hpp"
#include "control/fbsweep.hpp"
#include "control/objective.hpp"
#include "core/profile.hpp"
#include "core/schedule.hpp"
#include "core/simulation.hpp"
#include "core/sir_model.hpp"
#include "data/digg.hpp"
#include "harness.hpp"
#include "util/math.hpp"

namespace perfbench {

namespace {

namespace control = rumor::control;
namespace core = rumor::core;
namespace ode = rumor::ode;

enum Algorithm { kFbsm = 0, kPg = 1, kBatch = 2 };
constexpr const char* kAlgorithmNames[] = {"fbsm", "pg", "batch"};

// Group counts are drawn uniformly within a band; every deck (below)
// covers the bands evenly.
constexpr std::size_t kBands = 4;
constexpr std::size_t kBandLo[kBands] = {8, 16, 25, 33};
constexpr std::size_t kBandHi[kBands] = {15, 24, 32, 40};
constexpr const char* kBandNames[kBands] = {"g8-15", "g16-24", "g25-32", "g33-40"};

// There is no recorded traffic to take a mix from, so the mix is a
// choice: each worker deals its requests from shuffled decks of 16 FBSM
// jobs and 4 PG jobs (four FBSM and one PG per band) plus one plan-sweep
// frontier, whose band rotates from deck to deck. A frontier costs a
// little more than the twenty jobs together, so each caller gets about
// half the worker time (frontiers 55-60%).
// Dealing from decks instead of drawing each kind keeps that share, and
// with it ops_per_s, the same on every seed. p50 falls among the FBSM
// jobs and p90 among the PG jobs, each inside one continuous latency
// distribution.
constexpr std::size_t kFbsmPerBand = 4;
constexpr std::size_t kPgPerBand = 1;

struct Geometry {
  double horizon;
  std::size_t grid_points;
  std::size_t substeps;
  std::size_t max_iterations;
  double terminal_weight;
  double i0;
};
// serve/runners.cpp run_plan defaults.
constexpr Geometry kDaemonJob{20.0, 101, 4, 200, 1.0, 0.1};
// rumorctl cmd_plan_sweep defaults, with --tf 20 (grid = tf * 5 + 1).
constexpr Geometry kPlanSweep{20.0, 101, 20, 800, 50.0, 0.2};
constexpr std::size_t kBudgets = 7;
constexpr double kBudgetMin = 0.1;
constexpr double kBudgetMax = 0.7;
// Set-up runs each solver path this many iterations to fault in code
// and dispatch, not to solve.
constexpr std::size_t kWarmupIterations = 2;
constexpr std::size_t kWarmupGroups = 24;

const Geometry& geometry(Algorithm algorithm) {
  return algorithm == kBatch ? kPlanSweep : kDaemonJob;
}

struct Request {
  Algorithm algorithm = kFbsm;
  std::size_t groups = kBandLo[0];
  core::ModelParams params;
  control::CostParams cost;
  double i0 = 0.1;
};

/// Fill in what both callers take as a job field or flag (alpha, i0,
/// c1, c2), drawn within ±20% of their defaults; everything else stays
/// at the caller's default (both use ModelParams' λ and ω).
Request draw_request(Algorithm algorithm, std::size_t band,
                     util::Xoshiro256& rng) {
  Request r;
  const Geometry& g = geometry(algorithm);
  r.algorithm = algorithm;
  r.groups = kBandLo[band] + rng.uniform_index(kBandHi[band] - kBandLo[band] + 1);
  r.params.alpha = rng.uniform(0.04, 0.06);
  r.cost.c1 = rng.uniform(4.0, 6.0);
  r.cost.c2 = rng.uniform(8.0, 12.0);
  r.cost.terminal_weight = g.terminal_weight;
  r.i0 = g.i0 * rng.uniform(0.8, 1.2);
  return r;
}

/// One worker's request stream: shuffled decks, see kFbsmPerBand.
class Dealer {
 public:
  explicit Dealer(std::size_t first_band) : deck_number_(first_band) {}

  Request next(util::Xoshiro256& rng) {
    if (position_ == deck_.size()) deal(rng);
    const auto [algorithm, band] = deck_[position_++];
    return draw_request(algorithm, band, rng);
  }

 private:
  void deal(util::Xoshiro256& rng) {
    deck_.clear();
    for (std::size_t band = 0; band < kBands; ++band) {
      for (std::size_t i = 0; i < kFbsmPerBand; ++i) deck_.emplace_back(kFbsm, band);
      for (std::size_t i = 0; i < kPgPerBand; ++i) deck_.emplace_back(kPg, band);
    }
    deck_.emplace_back(kBatch, deck_number_++ % kBands);
    for (std::size_t i = deck_.size() - 1; i > 0; --i) {
      std::swap(deck_[i], deck_[rng.uniform_index(i + 1)]);
    }
    position_ = 0;
  }

  std::vector<std::pair<Algorithm, std::size_t>> deck_;
  std::size_t position_ = 0;
  std::size_t deck_number_;
};

std::size_t band_of(std::size_t groups) {
  std::size_t band = 0;
  while (band < kBands - 1 && groups > kBandHi[band]) ++band;
  return band;
}

int kind_of(const Request& request) {
  return static_cast<int>(request.algorithm * kBands + band_of(request.groups));
}

control::SweepOptions sweep_options(Algorithm algorithm) {
  const Geometry& g = geometry(algorithm);
  control::SweepOptions sweep;
  sweep.algorithm = algorithm == kPg ? control::SweepAlgorithm::kProjectedGradient
                                     : control::SweepAlgorithm::kForwardBackward;
  sweep.grid_points = g.grid_points;
  sweep.substeps = g.substeps;
  sweep.max_iterations = g.max_iterations;
  sweep.epsilon1_max = 0.7;
  sweep.epsilon2_max = 0.7;
  sweep.j_tolerance = 1e-6;
  return sweep;
}

/// J of `schedule` on an independent replay: core::run_simulation on
/// the solver's RK4 grid, scored by control::evaluate_cost.
double replay_cost(const core::NetworkProfile& profile, const Request& request,
                   std::shared_ptr<const core::ControlSchedule> schedule,
                   const ode::State& y0) {
  const Geometry& g = geometry(request.algorithm);
  const core::SirNetworkModel model(profile, request.params, schedule);
  core::SimulationOptions options;
  options.t1 = g.horizon;
  options.dt = g.horizon / static_cast<double>((g.grid_points - 1) * g.substeps);
  options.record_every = g.substeps;
  const auto run = core::run_simulation(model, y0, options);
  return control::evaluate_cost(model, run.trajectory, *schedule, request.cost)
      .total();
}

// Each worker spills what its requests returned to its own check file,
// which Workload::check reads back after the window. Held in memory
// instead, 2.4 KB per returned schedule would make peak RSS grow with
// the number of requests served, i.e. with speed. A record is the request's
// drawn fields (see draw_request) and, per returned schedule, the
// solver's J and the knots.
std::string check_path(std::size_t worker) {
  return "plan-checks-" + std::to_string(worker) + ".bin";
}

void put(std::ostream& out, double value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

void put(std::ostream& out, const std::vector<double>& values) {
  put(out, static_cast<double>(values.size()));
  out.write(reinterpret_cast<const char*>(values.data()),
            static_cast<std::streamsize>(values.size() * sizeof(double)));
}

double get(std::istream& in) {
  double value = 0.0;
  if (!in.read(reinterpret_cast<char*>(&value), sizeof(value))) {
    throw std::runtime_error("plan: check file truncated");
  }
  return value;
}

std::vector<double> get_vector(std::istream& in) {
  std::vector<double> values(static_cast<std::size_t>(get(in)));
  if (!in.read(reinterpret_cast<char*>(values.data()),
               static_cast<std::streamsize>(values.size() * sizeof(double)))) {
    throw std::runtime_error("plan: check file truncated");
  }
  return values;
}

void spill(std::ostream& out, const Request& request,
           const std::vector<control::SweepResult>& results) {
  put(out, static_cast<double>(request.algorithm));
  put(out, static_cast<double>(request.groups));
  put(out, request.params.alpha);
  put(out, request.cost.c1);
  put(out, request.cost.c2);
  put(out, request.i0);
  std::size_t schedules = 0;
  for (const auto& r : results) schedules += r.control != nullptr ? 1 : 0;
  put(out, static_cast<double>(schedules));
  for (const auto& r : results) {
    if (r.control == nullptr) continue;  // failed lane, already reported
    put(out, r.cost.total());
    put(out, r.control->grid());
    put(out, r.control->epsilon1_values());
    put(out, r.control->epsilon2_values());
  }
}

/// Per-worker tallies (each slot written by its own thread).
struct WorkerState {
  std::uint64_t requests = 0;  ///< spilled to the check file
  std::uint64_t solves = 0;
  std::uint64_t iterations = 0;
  std::uint64_t converged = 0;
  std::uint64_t batches = 0;
  double lane_util_sum = 0.0;
};

class PlanWorkload final : public Workload {
 public:
  std::vector<std::string> kind_names() const override {
    std::vector<std::string> names;
    for (const char* algorithm : kAlgorithmNames) {
      for (const char* band : kBandNames) {
        names.push_back(std::string(algorithm) + "/" + band);
      }
    }
    return names;
  }

  void setup(const RunConfig& config) override {
    base_ = std::make_unique<core::NetworkProfile>(
        core::NetworkProfile::from_histogram(
            rumor::data::digg_surrogate_histogram()));
    profile_groups_ = base_->num_groups();
    states_.assign(config.workers, {});
    // Warm every solver path (dispatch, page faults), once on each core
    // in turn. A core's speed state holds for seconds, so a set-up on one
    // core times that core's state: such set-ups took either 30–36 ms or
    // 45–52 ms, and the median of a run's set-ups jumped between the two
    // modes. Over every core, set-up time moves with the cores' mean
    // speed. The requests are fixed, not drawn from the seed, so set-up
    // does the same work on every seed.
    for (std::size_t core = 0; core < config.workers; ++core) {
      hop_to_core(core);
      for (Algorithm algorithm : {kFbsm, kPg, kBatch}) {
        Request request;
        request.algorithm = algorithm;
        request.groups = kWarmupGroups;
        solve(request, nullptr);
      }
    }
  }

  void teardown() override { base_.reset(); }

  void work(Worker& worker) override {
    std::ofstream out(check_path(worker.index()), std::ios::binary);
    if (!out) throw std::runtime_error("plan: cannot write the check file");
    Dealer dealer(worker.index());
    while (worker.running()) {
      const Request request = dealer.next(worker.rng());
      worker.begin_op();
      try {
        const auto results = solve(request, &worker);
        spill(out, request, results);
        ++states_[worker.index()].requests;
      } catch (const std::exception& e) {
        if (worker.op_open()) worker.end_op(kind_of(request), false);
        worker.fail_check(std::string("plan: solver threw: ") + e.what());
      }
    }
    if (!out.flush()) throw std::runtime_error("plan: cannot write the check file");
  }

  void check(Worker& worker) override {
    std::ifstream in(check_path(worker.index()), std::ios::binary);
    std::uint64_t checked = 0;
    while (in.peek() != std::ifstream::traits_type::eof()) {
      const auto algorithm = static_cast<Algorithm>(get(in));
      const auto groups = static_cast<std::size_t>(get(in));
      Request request;
      request.algorithm = algorithm;
      request.groups = groups;
      request.params.alpha = get(in);
      request.cost.c1 = get(in);
      request.cost.c2 = get(in);
      request.cost.terminal_weight = geometry(algorithm).terminal_weight;
      request.i0 = get(in);
      const auto schedules = static_cast<std::size_t>(get(in));

      const core::NetworkProfile profile = base_->coarsened(request.groups);
      const core::SirNetworkModel model(profile, request.params,
                                        core::make_constant_control(0.0, 0.0));
      const ode::State y0 = model.initial_state(request.i0);
      const double zero_j = replay_cost(
          profile, request, core::make_constant_control(0.0, 0.0), y0);
      for (std::size_t k = 0; k < schedules; ++k) {
        const double solver_j = get(in);
        auto grid = get_vector(in);
        auto e1 = get_vector(in);
        auto e2 = get_vector(in);
        const double replay_j = replay_cost(
            profile, request,
            std::make_shared<core::PiecewiseLinearControl>(
                std::move(grid), std::move(e1), std::move(e2)),
            y0);
        const std::string verdict = check_plan_cost(solver_j, replay_j, zero_j);
        if (!verdict.empty()) worker.fail_check(verdict);
      }
      ++checked;
    }
    if (checked != states_[worker.index()].requests) {
      worker.fail_check("plan: check file holds " + std::to_string(checked) +
                        " requests, not " +
                        std::to_string(states_[worker.index()].requests));
    }
  }

  void layer_metrics(WindowSummary& window, Metrics& out) override {
    WorkerState total;
    for (const WorkerState& s : states_) {
      total.solves += s.solves;
      total.iterations += s.iterations;
      total.converged += s.converged;
      total.batches += s.batches;
      total.lane_util_sum += s.lane_util_sum;
    }
    const auto span = [&](const char* name) {
      const auto it = window.span_ms.find(name);
      return it == window.span_ms.end() ? std::make_pair(std::uint64_t{0}, 0.0)
                                        : it->second;
    };
    const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    const auto mean_span = [&](const char* name) {
      const auto [count, ms] = span(name);
      return ratio(ms, static_cast<double>(count));
    };
    out.emplace_back("control.fbsm_ms", mean_span("control.fbsm"));
    out.emplace_back("control.pg_ms", mean_span("control.pg"));
    out.emplace_back("control.batch_ms", mean_span("control.batch"));
    out.emplace_back("control.iterations_per_solve",
                     ratio(static_cast<double>(total.iterations),
                           static_cast<double>(total.solves)));
    out.emplace_back("control.converged_ratio",
                     ratio(static_cast<double>(total.converged),
                           static_cast<double>(total.solves)));
    const double accepts = static_cast<double>(window.counter_delta("pg.accepts"));
    const double backtracks =
        static_cast<double>(window.counter_delta("pg.backtracks"));
    out.emplace_back("control.pg_accept_ratio", ratio(accepts, accepts + backtracks));
    out.emplace_back("control.batch_lane_util",
                     ratio(total.lane_util_sum, static_cast<double>(total.batches)));
    // Only the sequential solvers' steppers count RHS evaluations; the
    // batch kernels count none. So both ode figures are per sequential
    // (FBSM/PG) request: evals from the window's counter over its
    // sequential ops, time from the traced FBSM/PG solve spans.
    std::size_t sequential_ops = 0;
    for (Algorithm algorithm : {kFbsm, kPg}) {
      for (std::size_t band = 0; band < kBands; ++band) {
        sequential_ops += window.kind_latency_ms[algorithm * kBands + band].size();
      }
    }
    const double evals_per_op =
        ratio(static_cast<double>(window.counter_delta("ode.rhs_evals")),
              static_cast<double>(sequential_ops));
    out.emplace_back("ode.rhs_evals_per_op", evals_per_op);
    const auto [fbsm_count, fbsm_ms] = span("control.fbsm");
    const auto [pg_count, pg_ms] = span("control.pg");
    const double solve_ms =
        ratio(fbsm_ms + pg_ms, static_cast<double>(fbsm_count + pg_count));
    out.emplace_back("ode.ns_per_rhs_eval", ratio(1e6 * solve_ms, evals_per_op));
    out.emplace_back("core.model_build_ms", mean_span("core.model_build"));
  }

  void describe(Metrics& out) const override {
    std::uint64_t checked = 0;
    for (const WorkerState& s : states_) checked += s.requests;
    out.emplace_back("profile_groups", static_cast<double>(profile_groups_));
    out.emplace_back("groups_min", static_cast<double>(kBandLo[0]));
    out.emplace_back("groups_max", static_cast<double>(kBandHi[kBands - 1]));
    out.emplace_back("batch_lanes", static_cast<double>(kBudgets));
    out.emplace_back("requests_checked", static_cast<double>(checked));
  }

 private:
  /// One request. With a worker, the op is timed and traced; without
  /// (set-up warm-up) it only runs a few iterations.
  std::vector<control::SweepResult> solve(const Request& request, Worker* worker) {
    std::optional<Worker::Scope> span;
    const auto open = [&](const char* name, const char* layer) {
      if (worker != nullptr) span.emplace(*worker, name, layer);
    };
    control::SweepOptions sweep = sweep_options(request.algorithm);
    if (worker == nullptr) sweep.max_iterations = kWarmupIterations;
    const double horizon = geometry(request.algorithm).horizon;

    open("core.model_build", "core");
    const core::NetworkProfile profile = base_->coarsened(request.groups);
    const core::SirNetworkModel model(profile, request.params,
                                      core::make_constant_control(0.0, 0.0));
    const ode::State y0 = model.initial_state(request.i0);
    span.reset();

    std::vector<control::SweepResult> results;
    std::string lane_error;
    if (request.algorithm != kBatch) {
      open(request.algorithm == kPg ? "control.pg" : "control.fbsm", "control");
      results.push_back(
          control::solve_optimal_control(model, y0, horizon, request.cost, sweep));
      span.reset();
    } else {
      std::vector<control::BatchProblem> problems(kBudgets);
      const auto budgets = util::linspace(kBudgetMin, kBudgetMax, kBudgets);
      for (std::size_t b = 0; b < kBudgets; ++b) {
        problems[b].params = request.params;
        problems[b].cost = request.cost;
        problems[b].y0 = y0;
        problems[b].epsilon1_max = budgets[b];
        problems[b].epsilon2_max = budgets[b];
      }
      open("control.batch", "control");
      auto reports =
          control::solve_optimal_control_batch(profile, problems, horizon, sweep);
      span.reset();
      for (auto& report : reports) {
        if (lane_error.empty()) lane_error = check_lane_failed(report.failed, report.error);
        results.push_back(std::move(report.result));
      }
    }
    if (worker == nullptr) return results;
    worker->end_op(kind_of(request), lane_error.empty());
    if (!lane_error.empty()) worker->fail_check(lane_error);

    WorkerState& state = states_[worker->index()];
    std::size_t max_iterations = 0, lane_iterations = 0;
    for (const control::SweepResult& r : results) {
      ++state.solves;
      state.iterations += r.iterations;
      state.converged += r.converged ? 1 : 0;
      if (r.control == nullptr) continue;
      max_iterations = std::max(max_iterations, r.iterations);
      lane_iterations += r.iterations;
    }
    if (request.algorithm == kBatch && max_iterations > 0) {
      ++state.batches;
      state.lane_util_sum += static_cast<double>(lane_iterations) /
                             static_cast<double>(results.size() * max_iterations);
    }
    return results;
  }

  std::unique_ptr<core::NetworkProfile> base_;
  std::vector<WorkerState> states_;
  std::size_t profile_groups_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_plan_workload() {
  return std::make_unique<PlanWorkload>();
}

}  // namespace perfbench
