// Per-lane divergence tests for the batched optimal-control solver.
//
// The contract under test (batch_sweep.hpp): lane l of a batched solve
// reproduces the sequential solve of problem l — bit for bit under the
// scalar kernel backend, to ULP-scale tolerance under SIMD (whose
// sequential reductions reassociate where the batched ones do not) —
// even when the lanes converge at different iterations, retire from
// the Armijo search at different backtrack depths, or fail outright.
// Lane independence is checked at its strongest: a batch of B problems
// must equal B single-lane batches bitwise on EVERY backend, because
// the batched kernels never mix lanes. Pinned digests fix the batched
// results themselves, at lane counts that leave the SIMD backends a
// partial last vector.
#include "control/batch_sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <set>
#include <span>
#include <vector>

#include "control/fbsweep.hpp"
#include "core/batch_sim.hpp"
#include "core/fitting.hpp"
#include "data/digg.hpp"
#include "kern/kern.hpp"
#include "util/math.hpp"

namespace rumor::control {
namespace {

core::NetworkProfile small_profile() {
  return core::NetworkProfile::from_pmf({1.0, 3.0, 8.0}, {0.6, 0.3, 0.1});
}

core::ModelParams small_params() {
  core::ModelParams params;
  params.alpha = 0.05;
  params.lambda = core::Acceptance::linear(1.0);
  params.omega = core::Infectivity::saturating(0.5, 0.5);
  return params;
}

SweepOptions fast_options() {
  SweepOptions options;
  options.grid_points = 61;
  options.substeps = 4;
  options.max_iterations = 300;
  options.j_tolerance = 1e-6;
  return options;
}

// Problems whose cost weights differ enough that the lanes converge at
// different FBSM iterations (and accept at different PG backtracks).
std::vector<BatchProblem> divergent_problems(std::size_t count) {
  const auto profile = small_profile();
  const auto params = small_params();
  const core::SirNetworkModel model(profile, params,
                                    core::make_constant_control(0.0, 0.0));
  const ode::State y0 = model.initial_state(0.02);
  std::vector<BatchProblem> problems(count);
  for (std::size_t p = 0; p < count; ++p) {
    problems[p].params = params;
    problems[p].cost.c1 = 5.0;
    problems[p].cost.c2 = 10.0 * (1.0 + 0.25 * static_cast<double>(p));
    problems[p].cost.terminal_weight = 1.0 + static_cast<double>(p % 3);
    problems[p].y0 = y0;
  }
  return problems;
}

bool bitwise_equal(const std::vector<double>& a,
                   const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

// A batch lane against the sequential driver on the same problem:
// bitwise under the scalar backend, ULP-scale tolerance under SIMD.
void expect_matches_sequential(const BatchSolveReport& rep,
                               const SweepResult& seq, std::size_t lane) {
  ASSERT_FALSE(rep.failed) << "lane " << lane << ": " << rep.error;
  const SweepResult& got = rep.result;
  EXPECT_EQ(got.iterations, seq.iterations) << "lane " << lane;
  EXPECT_EQ(got.converged, seq.converged) << "lane " << lane;
  if (kern::backend() == kern::Backend::kScalar) {
    EXPECT_TRUE(bitwise_equal(got.epsilon1, seq.epsilon1))
        << "lane " << lane << " epsilon1 not bitwise equal (scalar backend)";
    EXPECT_TRUE(bitwise_equal(got.epsilon2, seq.epsilon2))
        << "lane " << lane << " epsilon2 not bitwise equal (scalar backend)";
    EXPECT_EQ(got.cost.total(), seq.cost.total()) << "lane " << lane;
  } else {
    ASSERT_EQ(got.epsilon1.size(), seq.epsilon1.size());
    for (std::size_t k = 0; k < seq.epsilon1.size(); ++k) {
      EXPECT_NEAR(got.epsilon1[k], seq.epsilon1[k], 1e-6)
          << "lane " << lane << " knot " << k;
      EXPECT_NEAR(got.epsilon2[k], seq.epsilon2[k], 1e-6)
          << "lane " << lane << " knot " << k;
    }
    EXPECT_NEAR(got.cost.total(), seq.cost.total(),
                1e-6 * std::max(1.0, std::abs(seq.cost.total())))
        << "lane " << lane;
  }
}

void expect_lane_equals_single_lane_batch(const SweepAlgorithm algorithm) {
  const auto profile = small_profile();
  const auto problems = divergent_problems(5);
  SweepOptions options = fast_options();
  options.algorithm = algorithm;
  const double tf = 30.0;

  const auto batched =
      solve_optimal_control_batch(profile, problems, tf, options);
  ASSERT_EQ(batched.size(), problems.size());
  for (std::size_t p = 0; p < problems.size(); ++p) {
    const std::vector<BatchProblem> one(1, problems[p]);
    const auto single =
        solve_optimal_control_batch(profile, one, tf, options);
    ASSERT_FALSE(batched[p].failed) << batched[p].error;
    ASSERT_FALSE(single[0].failed) << single[0].error;
    // Bitwise on ANY backend: the batched kernels never mix lanes, so
    // lane width cannot change a lane's arithmetic.
    EXPECT_TRUE(bitwise_equal(batched[p].result.epsilon1,
                              single[0].result.epsilon1))
        << "lane " << p << " epsilon1 depends on batch width";
    EXPECT_TRUE(bitwise_equal(batched[p].result.epsilon2,
                              single[0].result.epsilon2))
        << "lane " << p << " epsilon2 depends on batch width";
    EXPECT_EQ(batched[p].result.cost.total(), single[0].result.cost.total())
        << "lane " << p;
    EXPECT_EQ(batched[p].result.iterations, single[0].result.iterations)
        << "lane " << p;
    EXPECT_EQ(batched[p].result.converged, single[0].result.converged)
        << "lane " << p;
  }
}

TEST(ControlBatch, FbsmLanesDivergeAndMatchSequential) {
  const auto profile = small_profile();
  const auto problems = divergent_problems(6);
  const SweepOptions options = fast_options();
  const double tf = 30.0;

  const auto batched =
      solve_optimal_control_batch(profile, problems, tf, options);
  ASSERT_EQ(batched.size(), problems.size());

  // The cost spread must actually exercise per-lane retirement: at
  // least two distinct convergence iteration counts.
  std::set<std::size_t> iteration_counts;
  for (const auto& rep : batched) {
    ASSERT_FALSE(rep.failed) << rep.error;
    EXPECT_TRUE(rep.result.converged);
    iteration_counts.insert(rep.result.iterations);
  }
  EXPECT_GE(iteration_counts.size(), 2u)
      << "test problems converged in lockstep; widen the cost spread";

  for (std::size_t p = 0; p < problems.size(); ++p) {
    const core::SirNetworkModel model(profile, problems[p].params,
                                      core::make_constant_control(0.0, 0.0));
    const auto seq = solve_optimal_control(model, problems[p].y0, tf,
                                           problems[p].cost, options);
    expect_matches_sequential(batched[p], seq, p);
  }
}

TEST(ControlBatch, PgLanesDivergeAndMatchSequential) {
  const auto profile = small_profile();
  const auto problems = divergent_problems(4);
  SweepOptions options = fast_options();
  options.algorithm = SweepAlgorithm::kProjectedGradient;
  const double tf = 30.0;

  const auto batched =
      solve_optimal_control_batch(profile, problems, tf, options);
  ASSERT_EQ(batched.size(), problems.size());
  for (std::size_t p = 0; p < problems.size(); ++p) {
    const core::SirNetworkModel model(profile, problems[p].params,
                                      core::make_constant_control(0.0, 0.0));
    const auto seq = solve_optimal_control(model, problems[p].y0, tf,
                                           problems[p].cost, options);
    expect_matches_sequential(batched[p], seq, p);
  }
}

// Under AVX-512 both sides run the SIMD kernels: the 5-lane batch as
// one masked partial vector, each single lane as a one-lane one (with
// lanes % width handed to the scalar reference bodies, both sides ran
// scalar code there).
TEST(ControlBatch, FbsmLaneIndependentOfBatchWidth) {
  expect_lane_equals_single_lane_batch(SweepAlgorithm::kForwardBackward);
}

TEST(ControlBatch, PgLaneIndependentOfBatchWidth) {
  expect_lane_equals_single_lane_batch(SweepAlgorithm::kProjectedGradient);
}

TEST(ControlBatch, PerLaneBoxOverridesBindPerLane) {
  const auto profile = small_profile();
  auto problems = divergent_problems(3);
  for (auto& p : problems) p.cost.terminal_weight = 50.0;
  problems[0].epsilon2_max = 0.05;  // tight budget: the cap must bind
  problems[1].epsilon2_max = 0.30;
  // problems[2] keeps the shared options box (0.7).
  const auto batched =
      solve_optimal_control_batch(profile, problems, 30.0, fast_options());
  const auto peak = [](const std::vector<double>& v) {
    double m = 0.0;
    for (double x : v) m = std::max(m, x);
    return m;
  };
  ASSERT_FALSE(batched[0].failed) << batched[0].error;
  ASSERT_FALSE(batched[1].failed) << batched[1].error;
  ASSERT_FALSE(batched[2].failed) << batched[2].error;
  EXPECT_LE(peak(batched[0].result.epsilon2), 0.05 + 1e-12);
  EXPECT_LE(peak(batched[1].result.epsilon2), 0.30 + 1e-12);
  EXPECT_GT(peak(batched[0].result.epsilon2), 0.05 - 1e-6)
      << "the tight cap should bind under heavy terminal weight";
  EXPECT_GT(peak(batched[2].result.epsilon2),
            peak(batched[1].result.epsilon2))
      << "looser budgets should buy more blocking effort";
}

TEST(ControlBatch, FailedLaneDoesNotPerturbOthers) {
  const auto profile = small_profile();
  auto problems = divergent_problems(3);
  problems[1].y0[0] = std::numeric_limits<double>::quiet_NaN();
  const double tf = 30.0;
  const SweepOptions options = fast_options();

  const auto batched =
      solve_optimal_control_batch(profile, problems, tf, options);
  EXPECT_TRUE(batched[1].failed);
  EXPECT_FALSE(batched[1].error.empty());

  // The surviving lanes must be byte-for-byte what they are with the
  // poisoned lane absent.
  for (std::size_t p : {std::size_t{0}, std::size_t{2}}) {
    const std::vector<BatchProblem> one(1, problems[p]);
    const auto single = solve_optimal_control_batch(profile, one, tf, options);
    ASSERT_FALSE(batched[p].failed) << batched[p].error;
    ASSERT_FALSE(single[0].failed) << single[0].error;
    EXPECT_TRUE(bitwise_equal(batched[p].result.epsilon1,
                              single[0].result.epsilon1));
    EXPECT_TRUE(bitwise_equal(batched[p].result.epsilon2,
                              single[0].result.epsilon2));
    EXPECT_EQ(batched[p].result.cost.total(), single[0].result.cost.total());
  }
}

// ---- pinned digests --------------------------------------------------
//
// One FNV-1a digest per batched run over the raw bits of its results.
// Batched results are bit-identical across kernel backends (kern.hpp),
// so each value holds under RUMOR_KERNEL=scalar|avx2|avx512 alike. The
// lane counts (5, 6, 7, 9) leave both SIMD widths a partial last
// vector. The values were generated when the SIMD backends still ran
// the lanes past their last whole vector through the scalar reference
// bodies, so they also pin the masked tails to those bodies.

std::uint64_t hash_bits(std::uint64_t h, std::span<const double> values) {
  for (double v : values) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

// Every lane's ε1/ε2 knots, J bits and iteration count.
std::uint64_t digest(const std::vector<BatchSolveReport>& reports) {
  std::uint64_t h = kFnvBasis;
  for (const auto& rep : reports) {
    EXPECT_FALSE(rep.failed) << rep.error;
    h = hash_bits(h, rep.result.epsilon1);
    h = hash_bits(h, rep.result.epsilon2);
    const double scalars[] = {rep.result.cost.total(),
                              static_cast<double>(rep.result.iterations)};
    h = hash_bits(h, scalars);
  }
  return h;
}

// Every lane's full result: ε knots, state and costate samples, J
// history, last update, convergence flag, iteration count and J.
std::uint64_t full_digest(const std::vector<BatchSolveReport>& reports) {
  std::uint64_t h = kFnvBasis;
  for (const auto& rep : reports) {
    EXPECT_FALSE(rep.failed) << rep.error;
    const SweepResult& r = rep.result;
    h = hash_bits(h, r.epsilon1);
    h = hash_bits(h, r.epsilon2);
    h = hash_bits(h, r.state.times());
    for (std::size_t k = 0; k < r.state.size(); ++k) {
      h = hash_bits(h, r.state.state(k));
    }
    h = hash_bits(h, r.costate.times());
    for (std::size_t k = 0; k < r.costate.size(); ++k) {
      h = hash_bits(h, r.costate.state(k));
    }
    h = hash_bits(h, r.objective_history);
    const double scalars[] = {r.final_update, r.converged ? 1.0 : 0.0,
                              static_cast<double>(r.iterations),
                              r.cost.running, r.cost.terminal};
    h = hash_bits(h, scalars);
  }
  return h;
}

TEST(ControlBatch, FbsmBatchFullResultMatchesPinnedDigest) {
  EXPECT_EQ(full_digest(solve_optimal_control_batch(
                small_profile(), divergent_problems(6), 30.0,
                fast_options())),
            16198791083308187576ull);
}

// Short line searches and per-lane boxes: the lanes exhaust their
// Armijo search at iterations 5, 32, 43, 74 and 162, so most retire
// while others keep iterating.
TEST(ControlBatch, PgBatchFullResultMatchesPinnedDigest) {
  SweepOptions options = fast_options();
  options.algorithm = SweepAlgorithm::kProjectedGradient;
  options.gradient_max_backtracks = 4;
  options.gradient_initial_step = 0.25;
  auto problems = divergent_problems(5);
  for (std::size_t p = 0; p < problems.size(); ++p) {
    problems[p].epsilon1_max = 0.3 + 0.1 * static_cast<double>(p);
    problems[p].epsilon2_max = 0.7 - 0.1 * static_cast<double>(p);
  }
  EXPECT_EQ(full_digest(solve_optimal_control_batch(small_profile(), problems,
                                                    30.0, options)),
            14169666564749923631ull);
}

// The same batch stopped at 6 iterations: lane 0 exhausts its search at
// iteration 5, and the others run iteration 6, whose costate pass is the
// last one — lane 0 reports it, so it must see lane 0's accepted state,
// not the step its search rejected.
TEST(ControlBatch, PgLaneRetiredBeforeTheLastPassMatchesPinnedDigest) {
  SweepOptions options = fast_options();
  options.algorithm = SweepAlgorithm::kProjectedGradient;
  options.gradient_max_backtracks = 4;
  options.gradient_initial_step = 0.25;
  options.max_iterations = 6;
  auto problems = divergent_problems(5);
  for (std::size_t p = 0; p < problems.size(); ++p) {
    problems[p].epsilon1_max = 0.3 + 0.1 * static_cast<double>(p);
    problems[p].epsilon2_max = 0.7 - 0.1 * static_cast<double>(p);
  }
  const auto reports =
      solve_optimal_control_batch(small_profile(), problems, 30.0, options);
  ASSERT_EQ(reports[0].result.iterations, 5u);
  EXPECT_TRUE(reports[0].result.converged);
  EXPECT_EQ(full_digest(reports), 10491929218471496026ull);
}

// rumorctl plan-sweep's problem (Digg surrogate profile, budgets
// 0.1…0.7 as lanes of one FBSM batch, terminal weight 50, j_tol 1e-6,
// 5 knots per unit time) at 10 groups and 4 substeps.
TEST(ControlBatch, PlanSweepFrontierMatchesPinnedDigest) {
  const auto profile =
      core::NetworkProfile::from_histogram(data::digg_surrogate_histogram())
          .coarsened(10);
  core::ModelParams params;
  params.alpha = 0.05;
  params.lambda = core::Acceptance::linear(1.0);
  params.omega = core::Infectivity::saturating(0.5, 0.5);
  const core::SirNetworkModel model(profile, params,
                                    core::make_constant_control(0.0, 0.0));
  const double tf = 20.0;
  CostParams cost;
  cost.c1 = 5.0;
  cost.c2 = 10.0;
  cost.terminal_weight = 50.0;
  SweepOptions options;
  options.grid_points = 101;
  options.substeps = 4;
  options.max_iterations = 800;
  options.j_tolerance = 1e-6;
  const std::vector<double> budgets = util::linspace(0.1, 0.7, 7);
  std::vector<BatchProblem> problems(budgets.size());
  for (std::size_t b = 0; b < budgets.size(); ++b) {
    problems[b].params = params;
    problems[b].cost = cost;
    problems[b].y0 = model.initial_state(0.2);
    problems[b].epsilon1_max = budgets[b];
    problems[b].epsilon2_max = budgets[b];
  }
  EXPECT_EQ(digest(solve_optimal_control_batch(profile, problems, tf,
                                               options)),
            7877339560726942724ull);
}

TEST(ControlBatch, PgBatchMatchesPinnedDigest) {
  SweepOptions options = fast_options();
  options.algorithm = SweepAlgorithm::kProjectedGradient;
  EXPECT_EQ(digest(solve_optimal_control_batch(
                small_profile(), divergent_problems(5), 30.0, options)),
            14521583477897288931ull);
}

// Nine lanes run as chunks of 8 + 1, the elasticity table's shape.
TEST(ControlBatch, SimulationBatchMatchesPinnedDigest) {
  const auto profile =
      core::NetworkProfile::from_histogram(data::digg_surrogate_histogram())
          .coarsened(10);
  const core::SirNetworkModel reference(profile, small_params(),
                                        core::make_constant_control(0.0, 0.0));
  std::vector<core::BatchLaneSpec> specs(9);
  for (std::size_t l = 0; l < specs.size(); ++l) {
    const double x = static_cast<double>(l);
    specs[l].params = small_params();
    specs[l].params.lambda = core::Acceptance::linear(0.6 + 0.1 * x);
    specs[l].epsilon1 = 0.02 * x;
    specs[l].epsilon2 = 0.05 + 0.01 * x;
    specs[l].y0 = reference.initial_state(0.01 + 0.005 * x);
  }
  core::SimulationOptions options;
  options.t1 = 20.0;
  options.dt = 0.05;
  options.record_every = 4;
  std::uint64_t h = kFnvBasis;
  for (const auto& result : core::run_simulation_batch(profile, specs,
                                                       options)) {
    h = hash_bits(h, result.trajectory.times());
    for (std::size_t k = 0; k < result.trajectory.size(); ++k) {
      h = hash_bits(h, result.trajectory.state(k));
    }
    h = hash_bits(h, result.theta);
    h = hash_bits(h, result.infected_density);
    h = hash_bits(h, result.total_infected);
  }
  EXPECT_EQ(h, 17373446930009895484ull);
}

// The stream estimator's refit screen: six starts, one Nelder–Mead
// refinement. Only the screen is batched; the refinement runs the
// per-solve kernels, whose reductions differ by backend, so only the
// screen's outcome is pinned.
TEST(ControlBatch, MultistartScreenMatchesPinnedDigest) {
  const auto profile =
      core::NetworkProfile::from_histogram(data::digg_surrogate_histogram())
          .coarsened(10);
  // Observations from a one-lane batch, so they too are the same on
  // every backend.
  core::BatchLaneSpec truth;
  truth.params = small_params();
  truth.params.lambda = core::Acceptance::linear(1.3);
  truth.epsilon1 = 0.1;
  truth.epsilon2 = 0.05;
  truth.y0 = core::SirNetworkModel(profile, truth.params,
                                   core::make_constant_control(0.0, 0.0))
                 .initial_state(0.01);
  core::SimulationOptions sim;
  sim.t1 = 20.0;
  sim.dt = 0.05;
  sim.record_every = 20;
  const auto run = core::run_simulation_batch(
      profile, std::span<const core::BatchLaneSpec>(&truth, 1), sim);
  core::CascadeObservations observations;
  observations.t = run[0].trajectory.times();
  observations.infected_density = run[0].infected_density;

  core::MultistartSpec spec;
  spec.starts = 6;
  spec.refine_top = 1;
  spec.log_spread = 0.4;
  spec.seed = 97;
  spec.fit.max_evaluations = 20;
  const auto result = core::fit_to_cascade_multistart(
      profile, small_params(), 0.2, 0.1, observations, spec);
  EXPECT_EQ(result.screened, 6u);
  const double screen[] = {result.screening_best_rss};
  EXPECT_EQ(hash_bits(kFnvBasis, screen), 9073696580938913318ull);
}

}  // namespace
}  // namespace rumor::control
