#include "core/simulation.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/threshold.hpp"
#include "util/error.hpp"

namespace rumor::core {
namespace {

SirNetworkModel make_model(double alpha, double e1, double e2) {
  ModelParams params;
  params.alpha = alpha;
  params.lambda = Acceptance::linear(1.0);
  params.omega = Infectivity::saturating(0.5, 0.5);
  return SirNetworkModel(
      NetworkProfile::from_pmf({1.0, 3.0, 8.0}, {0.6, 0.3, 0.1}), params,
      make_constant_control(e1, e2));
}

TEST(RunSimulation, RecordsDerivedSeriesAtEverySample) {
  const auto model = make_model(0.03, 0.2, 0.3);
  SimulationOptions options;
  options.t1 = 10.0;
  options.dt = 0.1;
  const auto result = run_simulation(model, model.initial_state(0.05),
                                     options);
  const std::size_t samples = result.trajectory.size();
  EXPECT_EQ(result.theta.size(), samples);
  EXPECT_EQ(result.infected_density.size(), samples);
  EXPECT_EQ(result.total_infected.size(), samples);
  for (std::size_t k = 0; k < samples; ++k) {
    EXPECT_NEAR(result.theta[k], model.theta(result.trajectory.state(k)),
                1e-15);
  }
}

TEST(RunSimulation, AdaptiveAndFixedAgree) {
  const auto model = make_model(0.03, 0.2, 0.3);
  SimulationOptions fixed;
  fixed.t1 = 20.0;
  fixed.dt = 0.005;
  SimulationOptions adaptive;
  adaptive.t1 = 20.0;
  adaptive.method = IntegrationMethod::kDopri5;
  adaptive.dopri5.rel_tol = 1e-10;
  adaptive.dopri5.abs_tol = 1e-12;
  const auto y0 = model.initial_state(0.05);
  const auto a = run_simulation(model, y0, fixed);
  const auto b = run_simulation(model, y0, adaptive);
  const auto ya = a.trajectory.back_state();
  const auto yb = b.trajectory.back_state();
  for (std::size_t i = 0; i < model.dimension(); ++i) {
    EXPECT_NEAR(ya[i], yb[i], 1e-7) << "i=" << i;
  }
}

TEST(RunSimulation, ExtinctionTimeDetected) {
  // Strong countermeasures: total infected falls below the threshold
  // well before t1.
  const auto model = make_model(0.001, 0.5, 0.8);
  SimulationOptions options;
  options.t1 = 100.0;
  options.dt = 0.01;
  options.extinction_threshold = 1e-4;
  const auto result = run_simulation(model, model.initial_state(0.05),
                                     options);
  ASSERT_TRUE(result.extinction_time.has_value());
  EXPECT_GT(*result.extinction_time, 0.0);
  EXPECT_LT(*result.extinction_time, 100.0);
  // After the reported time the series stays below the threshold.
  for (std::size_t k = 0; k < result.trajectory.size(); ++k) {
    if (result.trajectory.times()[k] >= *result.extinction_time) {
      EXPECT_LT(result.total_infected[k], 1e-4);
    }
  }
}

TEST(RunSimulation, NoExtinctionInEndemicRegime) {
  const auto model = make_model(0.05, 0.05, 0.3);
  ASSERT_GT(basic_reproduction_number(model.profile(), model.params(),
                                      0.05, 0.3),
            1.0);
  SimulationOptions options;
  options.t1 = 200.0;
  options.dt = 0.02;
  options.record_every = 10;
  options.extinction_threshold = 1e-4;
  const auto result = run_simulation(model, model.initial_state(0.05),
                                     options);
  EXPECT_FALSE(result.extinction_time.has_value());
  EXPECT_GT(result.total_infected.back(), 1e-4);
}

TEST(RunSimulation, DensitiesStayInSimplex) {
  const auto model = make_model(0.03, 0.2, 0.3);
  SimulationOptions options;
  options.t1 = 50.0;
  options.dt = 0.01;
  options.record_every = 10;
  const auto result = run_simulation(model, model.initial_state(0.1),
                                     options);
  for (std::size_t k = 0; k < result.trajectory.size(); ++k) {
    const auto y = result.trajectory.state(k);
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_GE(y[i], -1e-9);
      EXPECT_GE(y[3 + i], -1e-9);
      EXPECT_LE(y[i] + y[3 + i], 1.0 + 1e-9);
    }
  }
}

TEST(RunSimulation, ValidatesArguments) {
  const auto model = make_model(0.03, 0.2, 0.3);
  SimulationOptions options;
  options.t1 = 0.0;
  EXPECT_THROW(run_simulation(model, model.initial_state(0.05), options),
               util::InvalidArgument);
  options.t1 = 1.0;
  EXPECT_THROW(run_simulation(model, ode::State{0.5}, options),
               util::InvalidArgument);
}

TEST(GroupSeries, ConsistentWithTrajectory) {
  const auto model = make_model(0.03, 0.2, 0.3);
  SimulationOptions options;
  options.t1 = 5.0;
  options.dt = 0.1;
  const auto result = run_simulation(model, model.initial_state(0.05),
                                     options);
  const auto series = group_series(model, result, 1);
  ASSERT_EQ(series.susceptible.size(), result.trajectory.size());
  for (std::size_t k = 0; k < result.trajectory.size(); ++k) {
    const auto y = result.trajectory.state(k);
    EXPECT_DOUBLE_EQ(series.susceptible[k], y[1]);
    EXPECT_DOUBLE_EQ(series.infected[k], y[4]);
    EXPECT_NEAR(series.recovered[k], 1.0 - y[1] - y[4], 1e-15);
  }
  EXPECT_THROW(group_series(model, result, 3), util::InvalidArgument);
}

TEST(DistanceSeries, MonotoneTailInExtinctRegime) {
  const auto model = make_model(0.03, 0.3, 0.4);
  const auto eq = zero_equilibrium(model.profile(), model.params(), 0.3,
                                   0.4);
  SimulationOptions options;
  options.t1 = 150.0;
  options.dt = 0.02;
  options.record_every = 50;
  const auto result = run_simulation(model, model.initial_state(0.1),
                                     options);
  const auto dist = distance_series(model, result, eq);
  ASSERT_EQ(dist.size(), result.trajectory.size());
  // Past the initial transient, the distance decreases.
  for (std::size_t k = dist.size() / 2; k + 1 < dist.size(); ++k) {
    EXPECT_LE(dist[k + 1], dist[k] + 1e-12);
  }
}

}  // namespace
}  // namespace rumor::core

namespace rumor::core {
namespace {

TEST(RunSimulation, ImplicitTrapezoidAgreesWithRk4) {
  ModelParams params;
  params.alpha = 0.03;
  params.lambda = Acceptance::linear(1.0);
  params.omega = Infectivity::saturating(0.5, 0.5);
  const SirNetworkModel model(
      NetworkProfile::from_pmf({1.0, 3.0, 8.0}, {0.6, 0.3, 0.1}), params,
      make_constant_control(0.2, 0.3));
  const auto y0 = model.initial_state(0.05);

  SimulationOptions rk4;
  rk4.t1 = 20.0;
  rk4.dt = 0.005;
  SimulationOptions implicit_options;
  implicit_options.t1 = 20.0;
  implicit_options.dt = 0.05;  // 10x larger step than RK4
  implicit_options.method = IntegrationMethod::kImplicitTrapezoid;

  const auto a = run_simulation(model, y0, rk4);
  const auto b = run_simulation(model, y0, implicit_options);
  const auto ya = a.trajectory.back_state();
  const auto yb = b.trajectory.back_state();
  for (std::size_t i = 0; i < model.dimension(); ++i) {
    EXPECT_NEAR(ya[i], yb[i], 5e-4) << "i=" << i;
  }
}

TEST(RunSimulation, ImplicitHandlesStiffHighDegreeProfile) {
  // A profile with a 900-degree hub group: λ(k_max)Θ-scale rates make
  // explicit RK4 at dt = 0.05 blow up, while the implicit method with
  // the analytic Jacobian stays on the (bounded) solution.
  ModelParams params;
  params.alpha = 0.01;
  params.lambda = Acceptance::linear(1.0);
  params.omega = Infectivity::saturating(0.5, 0.5);
  const SirNetworkModel model(
      NetworkProfile::from_pmf({1.0, 30.0, 900.0}, {0.8, 0.15, 0.05}),
      params, make_constant_control(0.1, 0.2));
  const auto y0 = model.initial_state(0.05);

  SimulationOptions implicit_options;
  implicit_options.t1 = 10.0;
  implicit_options.dt = 0.05;
  implicit_options.method = IntegrationMethod::kImplicitTrapezoid;
  const auto result = run_simulation(model, y0, implicit_options);
  for (std::size_t k = 0; k < result.trajectory.size(); ++k) {
    const auto y = result.trajectory.state(k);
    for (std::size_t i = 0; i < model.dimension(); ++i) {
      EXPECT_TRUE(std::isfinite(y[i]));
      EXPECT_GE(y[i], -1e-6);
      EXPECT_LE(y[i], 1.2);
    }
  }
}

}  // namespace
}  // namespace rumor::core
