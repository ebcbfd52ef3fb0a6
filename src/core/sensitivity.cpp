#include "core/sensitivity.hpp"

#include <cmath>
#include <utility>

#include "core/batch_sim.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace rumor::core {

std::string to_string(Knob knob) {
  switch (knob) {
    case Knob::kAlpha:
      return "alpha";
    case Knob::kEpsilon1:
      return "eps1";
    case Knob::kEpsilon2:
      return "eps2";
    case Knob::kLambdaScale:
      return "lambda-scale";
  }
  return "?";
}

ThresholdSensitivity threshold_sensitivity() { return {}; }

TrajectoryFunctional peak_infected_density() {
  return [](const SirNetworkModel&, const SimulationResult& result) {
    double peak = 0.0;
    for (const double v : result.infected_density) {
      peak = std::max(peak, v);
    }
    return peak;
  };
}

TrajectoryFunctional terminal_infected_density() {
  return [](const SirNetworkModel&, const SimulationResult& result) {
    return result.infected_density.back();
  };
}

TrajectoryFunctional extinction_time(double threshold) {
  util::require(threshold > 0.0,
                "extinction_time: threshold must be positive");
  return [threshold](const SirNetworkModel&,
                     const SimulationResult& result) {
    for (std::size_t k = 0; k < result.total_infected.size(); ++k) {
      if (result.total_infected[k] < threshold) {
        return result.trajectory.times()[k];
      }
    }
    return result.trajectory.back_time();
  };
}

namespace {

double evaluate(const NetworkProfile& profile, const ModelParams& params,
                double epsilon1, double epsilon2, double initial_infected,
                const TrajectoryFunctional& functional,
                const SimulationOptions& simulation) {
  SirNetworkModel model(profile, params,
                        make_constant_control(epsilon1, epsilon2));
  const auto result =
      run_simulation(model, model.initial_state(initial_infected),
                     simulation);
  return functional(model, result);
}

}  // namespace

double trajectory_elasticity(const NetworkProfile& profile,
                             const ModelParams& params, double epsilon1,
                             double epsilon2, double initial_infected,
                             Knob knob,
                             const TrajectoryFunctional& functional,
                             const ElasticityOptions& options) {
  util::require(options.relative_step > 0.0 && options.relative_step < 1.0,
                "trajectory_elasticity: step must be in (0,1)");
  const double base = evaluate(profile, params, epsilon1, epsilon2,
                               initial_infected, functional,
                               options.simulation);
  util::require(base > 0.0,
                "trajectory_elasticity: functional must be positive at "
                "the base point for a log-elasticity");

  auto perturbed = [&](double factor) {
    ModelParams p = params;
    double e1 = epsilon1, e2 = epsilon2;
    switch (knob) {
      case Knob::kAlpha:
        p.alpha = params.alpha * factor;
        break;
      case Knob::kEpsilon1:
        e1 = epsilon1 * factor;
        break;
      case Knob::kEpsilon2:
        e2 = epsilon2 * factor;
        break;
      case Knob::kLambdaScale:
        p.lambda = params.lambda.with_scale(params.lambda.scale() * factor);
        break;
    }
    return evaluate(profile, p, e1, e2, initial_infected, functional,
                    options.simulation);
  };

  const double h = options.relative_step;
  const double up = perturbed(1.0 + h);
  const double down = perturbed(1.0 - h);
  util::require(up > 0.0 && down > 0.0,
                "trajectory_elasticity: functional vanished at a "
                "perturbed point");
  // Central difference on the log-log scale.
  return (std::log(up) - std::log(down)) /
         (std::log(1.0 + h) - std::log(1.0 - h));
}

std::vector<ElasticityRow> elasticity_table(
    const NetworkProfile& profile, const ModelParams& params,
    double epsilon1, double epsilon2, double initial_infected,
    const TrajectoryFunctional& functional,
    const ElasticityOptions& options) {
  const Knob knobs[] = {Knob::kAlpha, Knob::kEpsilon1, Knob::kEpsilon2,
                        Knob::kLambdaScale};
  std::vector<ElasticityRow> rows(std::size(knobs));

  // The table needs one shared base run plus an up/down pair per knob:
  // nine independent problems over one profile and one grid — exactly
  // the lane-per-problem batch shape. For fixed-step RK4 (the batch
  // kernels' method) run all nine as one SIMD multi-solve; every other
  // integrator keeps the per-knob concurrent path below. Per lane the
  // batch reproduces the sequential run under the scalar backend bit
  // for bit, so the table is unchanged up to the SIMD backends' usual
  // reduction-order ULPs.
  if (options.simulation.method == IntegrationMethod::kRk4) {
    util::require(options.relative_step > 0.0 && options.relative_step < 1.0,
                  "trajectory_elasticity: step must be in (0,1)");
    const double h = options.relative_step;
    const auto lane_for = [&](Knob knob, double factor) {
      BatchLaneSpec spec;
      spec.params = params;
      spec.epsilon1 = epsilon1;
      spec.epsilon2 = epsilon2;
      switch (knob) {
        case Knob::kAlpha:
          spec.params.alpha = params.alpha * factor;
          break;
        case Knob::kEpsilon1:
          spec.epsilon1 = epsilon1 * factor;
          break;
        case Knob::kEpsilon2:
          spec.epsilon2 = epsilon2 * factor;
          break;
        case Knob::kLambdaScale:
          spec.params.lambda =
              params.lambda.with_scale(params.lambda.scale() * factor);
          break;
      }
      return spec;
    };

    std::vector<BatchLaneSpec> specs;
    specs.reserve(1 + 2 * std::size(knobs));
    BatchLaneSpec base;  // lane 0 is the unperturbed base point
    base.params = params;
    base.epsilon1 = epsilon1;
    base.epsilon2 = epsilon2;
    specs.push_back(std::move(base));
    for (const Knob knob : knobs) {
      specs.push_back(lane_for(knob, 1.0 + h));
      specs.push_back(lane_for(knob, 1.0 - h));
    }
    // The initial state depends only on the profile, so one vector
    // serves every lane.
    {
      const SirNetworkModel base_model(
          profile, params, make_constant_control(epsilon1, epsilon2));
      const ode::State y0 = base_model.initial_state(initial_infected);
      for (BatchLaneSpec& spec : specs) spec.y0 = y0;
    }
    const std::vector<SimulationResult> results =
        run_simulation_batch(profile, specs, options.simulation);

    std::vector<double> values(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const SirNetworkModel model(
          profile, specs[i].params,
          make_constant_control(specs[i].epsilon1, specs[i].epsilon2));
      values[i] = functional(model, results[i]);
    }
    util::require(values[0] > 0.0,
                  "trajectory_elasticity: functional must be positive at "
                  "the base point for a log-elasticity");
    for (std::size_t i = 0; i < std::size(knobs); ++i) {
      const double up = values[1 + 2 * i];
      const double down = values[2 + 2 * i];
      util::require(up > 0.0 && down > 0.0,
                    "trajectory_elasticity: functional vanished at a "
                    "perturbed point");
      rows[i] = {knobs[i], (std::log(up) - std::log(down)) /
                               (std::log(1.0 + h) - std::log(1.0 - h))};
    }
    return rows;
  }

  // One independent (base, up, down) simulation triple per knob: run
  // the knobs concurrently, writing disjoint rows of a pre-sized table.
  util::parallel_for(std::size_t{0}, std::size(knobs), /*grain=*/1,
                     [&](std::size_t i) {
                       rows[i] = {knobs[i],
                                  trajectory_elasticity(
                                      profile, params, epsilon1, epsilon2,
                                      initial_infected, knobs[i],
                                      functional, options)};
                     });
  return rows;
}

}  // namespace rumor::core
