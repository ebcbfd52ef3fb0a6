// High-level simulation runner: integrate the SIR model, record the
// trajectory, and expose the derived series (Θ, infected density,
// distances to equilibria, extinction time) the experiments report.
#pragma once

#include <optional>

#include "core/equilibrium.hpp"
#include "core/sir_model.hpp"
#include "ode/dopri5.hpp"
#include "ode/integrate.hpp"

namespace rumor::core {

/// Which integrator drives the run.
enum class IntegrationMethod {
  kRk4,                ///< fixed-step explicit RK4 (default)
  kDopri5,             ///< adaptive Dormand–Prince 5(4)
  kImplicitTrapezoid,  ///< fixed-step implicit trapezoid with the
                       ///< analytic SIR Jacobian — for stiff profiles
                       ///< (large λ(k_max)) where explicit steps would
                       ///< be stability-limited
};

struct SimulationOptions {
  double t0 = 0.0;
  double t1 = 100.0;
  /// Fixed step for the fixed-step methods.
  double dt = 0.05;
  /// Keep every k-th sample (fixed-step methods only).
  std::size_t record_every = 1;
  IntegrationMethod method = IntegrationMethod::kRk4;
  ode::Dopri5Options dopri5;
  /// If > 0, report the first time Σ_i I_i drops below this value as
  /// `extinction_time` (integration still runs to t1 so the full series
  /// is available).
  double extinction_threshold = 0.0;
};

struct SimulationResult {
  ode::Trajectory trajectory;  ///< state layout [S_1..S_n, I_1..I_n]
  std::optional<double> extinction_time;

  /// Derived series evaluated at the recorded sample times.
  std::vector<double> theta;             ///< Θ(t_k)
  std::vector<double> infected_density;  ///< Σ P_i I_i at t_k
  std::vector<double> total_infected;    ///< Σ I_i at t_k
};

/// Integrate `model` from `y0` over [t0, t1].
SimulationResult run_simulation(const SirNetworkModel& model,
                                const ode::State& y0,
                                const SimulationOptions& options);

/// Dist(t_k) = sup-norm distance from the trajectory to `equilibrium`
/// at every recorded sample — the series of Fig. 2(a)/3(a).
std::vector<double> distance_series(const SirNetworkModel& model,
                                    const SimulationResult& result,
                                    const Equilibrium& equilibrium);

/// Group-i S/I/R series extracted from a result (Fig. 2(b-d)/3(b-d)).
struct GroupSeries {
  std::vector<double> susceptible;
  std::vector<double> infected;
  std::vector<double> recovered;
};
GroupSeries group_series(const SirNetworkModel& model,
                         const SimulationResult& result, std::size_t group);

}  // namespace rumor::core
