#include "control/fbsweep.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "control/heuristic.hpp"
#include "core/threshold.hpp"
#include "util/error.hpp"

namespace rumor::control {
namespace {

// A small, mild problem both algorithms solve quickly: 3 degree groups,
// moderate rates.
core::SirNetworkModel small_model() {
  core::ModelParams params;
  params.alpha = 0.05;
  params.lambda = core::Acceptance::linear(1.0);
  params.omega = core::Infectivity::saturating(0.5, 0.5);
  return core::SirNetworkModel(
      core::NetworkProfile::from_pmf({1.0, 3.0, 8.0}, {0.6, 0.3, 0.1}),
      params, core::make_constant_control(0.0, 0.0));
}

SweepOptions fast_options() {
  SweepOptions options;
  options.grid_points = 201;
  options.substeps = 4;
  options.max_iterations = 400;
  options.j_tolerance = 1e-7;
  return options;
}

TEST(Fbsweep, ConvergesOnSmallProblem) {
  const auto model = small_model();
  const auto result = solve_optimal_control(
      model, model.initial_state(0.02), 30.0, CostParams{}, fast_options());
  EXPECT_TRUE(result.converged);
  EXPECT_GT(result.iterations, 1u);
}

TEST(Fbsweep, ControlsRespectTheAdmissibleBox) {
  const auto model = small_model();
  SweepOptions options = fast_options();
  options.epsilon1_max = 0.25;
  options.epsilon2_max = 0.45;
  const auto result = solve_optimal_control(
      model, model.initial_state(0.02), 30.0, CostParams{}, options);
  for (std::size_t k = 0; k < result.grid.size(); ++k) {
    EXPECT_GE(result.epsilon1[k], 0.0);
    EXPECT_LE(result.epsilon1[k], 0.25 + 1e-12);
    EXPECT_GE(result.epsilon2[k], 0.0);
    EXPECT_LE(result.epsilon2[k], 0.45 + 1e-12);
  }
}

TEST(Fbsweep, BeatsDoingNothingAndConstantMaxEffort) {
  const auto model = small_model();
  const auto y0 = model.initial_state(0.02);
  const double tf = 30.0;
  const CostParams cost;
  const auto optimal =
      solve_optimal_control(model, y0, tf, cost, fast_options());

  // Baseline A: no countermeasures at all — J is pure terminal mass.
  core::SirNetworkModel no_control(model.profile(), model.params(),
                                   core::make_constant_control(0.0, 0.0));
  const auto idle = ode::integrate_rk4(no_control, y0, 0.0, tf, 0.05);
  const auto idle_cost = evaluate_cost(no_control, idle,
                                       no_control.control(), cost);

  // Baseline B: both controls pinned at the box maximum.
  core::SirNetworkModel full_effort(model.profile(), model.params(),
                                    core::make_constant_control(0.7, 0.7));
  const auto flat = ode::integrate_rk4(full_effort, y0, 0.0, tf, 0.05);
  const auto flat_cost = evaluate_cost(full_effort, flat,
                                       full_effort.control(), cost);

  EXPECT_LT(optimal.cost.total(), idle_cost.total());
  EXPECT_LT(optimal.cost.total(), flat_cost.total());
}

TEST(Fbsweep, SatisfiesStationarityAtInteriorPoints) {
  // Pontryagin necessary condition: wherever the optimized control is
  // strictly inside the box, it matches the stationary formula (18).
  const auto model = small_model();
  const CostParams cost;
  SweepOptions options = fast_options();
  options.tolerance = 1e-7;
  const auto result = solve_optimal_control(
      model, model.initial_state(0.02), 30.0, cost, options);
  ASSERT_TRUE(result.converged);
  std::size_t interior_checked = 0;
  for (std::size_t k = 0; k < result.grid.size(); ++k) {
    const double t = result.grid[k];
    const auto y = result.state.at(t);
    const auto w = result.costate.at(t);
    const auto stationary = stationary_controls(y, w, 3, cost);
    if (result.epsilon1[k] > 1e-4 &&
        result.epsilon1[k] < options.epsilon1_max - 1e-4) {
      EXPECT_NEAR(result.epsilon1[k], stationary.epsilon1, 2e-2)
          << "t=" << t;
      ++interior_checked;
    }
  }
  EXPECT_GT(interior_checked, 10u);
}

TEST(Fbsweep, ObjectiveHistoryIsRecorded) {
  const auto model = small_model();
  const auto result = solve_optimal_control(
      model, model.initial_state(0.02), 30.0, CostParams{}, fast_options());
  ASSERT_GE(result.objective_history.size(), result.iterations - 1);
  // The first iterations descend steeply from the zero-control guess.
  EXPECT_LT(result.objective_history.back(),
            result.objective_history.front());
}

TEST(Fbsweep, ProjectedGradientFindsComparableCost) {
  const auto model = small_model();
  const auto y0 = model.initial_state(0.02);
  const CostParams cost;
  SweepOptions fbsm = fast_options();
  SweepOptions gradient = fast_options();
  gradient.algorithm = SweepAlgorithm::kProjectedGradient;
  const auto a = solve_optimal_control(model, y0, 30.0, cost, fbsm);
  const auto b = solve_optimal_control(model, y0, 30.0, cost, gradient);
  // Two different optimizers on the same problem: costs within 15%.
  EXPECT_NEAR(a.cost.total(), b.cost.total(),
              0.15 * std::max(a.cost.total(), b.cost.total()));
}

TEST(Fbsweep, DiagonalCostateStillProducesAPolicy) {
  // The paper's printed Eq. (16): runs and lands in the same cost
  // ballpark on a mild problem (it is exact only for n = 1).
  const auto model = small_model();
  SweepOptions options = fast_options();
  options.diagonal_costate = true;
  const auto result = solve_optimal_control(
      model, model.initial_state(0.02), 30.0, CostParams{}, options);
  EXPECT_TRUE(result.converged);
  EXPECT_GT(result.cost.total(), 0.0);
}

TEST(Fbsweep, ValidatesArguments) {
  const auto model = small_model();
  const auto y0 = model.initial_state(0.02);
  SweepOptions options = fast_options();
  EXPECT_THROW(
      solve_optimal_control(model, y0, -1.0, CostParams{}, options),
      util::InvalidArgument);
  options.grid_points = 2;
  EXPECT_THROW(
      solve_optimal_control(model, y0, 10.0, CostParams{}, options),
      util::InvalidArgument);
  options = fast_options();
  options.relaxation = 1.0;
  EXPECT_THROW(
      solve_optimal_control(model, y0, 10.0, CostParams{}, options),
      util::InvalidArgument);
  options = fast_options();
  options.substeps = 0;
  EXPECT_THROW(
      solve_optimal_control(model, y0, 10.0, CostParams{}, options),
      util::InvalidArgument);
  // PG's J-window test reads the objective j_window iterations back.
  options = fast_options();
  options.algorithm = SweepAlgorithm::kProjectedGradient;
  options.j_window = 0;
  EXPECT_THROW(
      solve_optimal_control(model, y0, 10.0, CostParams{}, options),
      util::InvalidArgument);
}

TEST(TerminalTarget, EscalatesUntilTargetIsMet) {
  const auto model = small_model();
  const auto y0 = model.initial_state(0.02);
  const double target = 0.02;
  const auto result = solve_with_terminal_target(
      model, y0, 30.0, CostParams{}, target, fast_options());
  EXPECT_LE(model.total_infected(result.state.back_state()), target);
}

TEST(TerminalTarget, ReportedCostUsesCallersWeight) {
  // Escalation may multiply W internally, but the returned breakdown
  // must be priced at the caller's weight so runs are comparable.
  const auto model = small_model();
  const auto y0 = model.initial_state(0.02);
  CostParams cost;
  cost.terminal_weight = 1.0;
  const auto result = solve_with_terminal_target(model, y0, 30.0, cost,
                                                 0.02, fast_options());
  const double terminal = model.total_infected(result.state.back_state());
  EXPECT_NEAR(result.cost.terminal, terminal, 1e-12);
}

TEST(TerminalTarget, UnreachableTargetThrows) {
  const auto model = small_model();
  const auto y0 = model.initial_state(0.02);
  SweepOptions options = fast_options();
  options.epsilon1_max = 0.01;  // far too weak to extinguish anything
  options.epsilon2_max = 0.01;
  options.max_iterations = 40;
  EXPECT_THROW(solve_with_terminal_target(model, y0, 10.0, CostParams{},
                                          1e-9, options, 10.0, 3),
               util::InvalidArgument);
}

}  // namespace
}  // namespace rumor::control
