#include "core/simulation.hpp"

#include "core/jacobian.hpp"
#include "util/error.hpp"

namespace rumor::core {

SimulationResult run_simulation(const SirNetworkModel& model,
                                const ode::State& y0,
                                const SimulationOptions& options) {
  util::require(y0.size() == model.dimension(),
                "run_simulation: initial state dimension mismatch");
  util::require(options.t1 > options.t0, "run_simulation: need t1 > t0");

  SimulationResult result;
  switch (options.method) {
    case IntegrationMethod::kDopri5:
      result.trajectory = ode::integrate_dopri5(
          model, y0, options.t0, options.t1, options.dopri5);
      break;
    case IntegrationMethod::kImplicitTrapezoid: {
      const SirJacobianProvider provider(model);
      ode::TrapezoidalStepper stepper(&provider);
      ode::FixedStepOptions fixed;
      fixed.dt = options.dt;
      fixed.record_every = options.record_every;
      result.trajectory = ode::integrate_fixed(model, stepper, y0,
                                               options.t0, options.t1,
                                               fixed);
      break;
    }
    case IntegrationMethod::kRk4: {
      ode::Rk4Stepper stepper;
      ode::FixedStepOptions fixed;
      fixed.dt = options.dt;
      fixed.record_every = options.record_every;
      result.trajectory = ode::integrate_fixed(model, stepper, y0,
                                               options.t0, options.t1,
                                               fixed);
      break;
    }
  }

  const auto& traj = result.trajectory;
  result.theta.reserve(traj.size());
  result.infected_density.reserve(traj.size());
  result.total_infected.reserve(traj.size());
  for (std::size_t k = 0; k < traj.size(); ++k) {
    const auto y = traj.state(k);
    result.theta.push_back(model.theta(y));
    result.infected_density.push_back(model.infected_density(y));
    const double total = model.total_infected(y);
    result.total_infected.push_back(total);
    if (options.extinction_threshold > 0.0 && !result.extinction_time &&
        total < options.extinction_threshold) {
      result.extinction_time = traj.times()[k];
    }
  }
  return result;
}

std::vector<double> distance_series(const SirNetworkModel& model,
                                    const SimulationResult& result,
                                    const Equilibrium& equilibrium) {
  std::vector<double> out;
  out.reserve(result.trajectory.size());
  for (std::size_t k = 0; k < result.trajectory.size(); ++k) {
    out.push_back(distance_to_equilibrium(model, result.trajectory.state(k),
                                          equilibrium));
  }
  return out;
}

GroupSeries group_series(const SirNetworkModel& model,
                         const SimulationResult& result, std::size_t group) {
  const std::size_t n = model.num_groups();
  util::require(group < n, "group_series: group index out of range");
  GroupSeries series;
  const auto& traj = result.trajectory;
  series.susceptible.reserve(traj.size());
  series.infected.reserve(traj.size());
  series.recovered.reserve(traj.size());
  for (std::size_t k = 0; k < traj.size(); ++k) {
    const auto y = traj.state(k);
    series.susceptible.push_back(y[group]);
    series.infected.push_back(y[n + group]);
    series.recovered.push_back(1.0 - y[group] - y[n + group]);
  }
  return series;
}

}  // namespace rumor::core
