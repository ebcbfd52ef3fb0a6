// Batched lane-per-problem forward simulation: integrate `lanes`
// independent System (1) problems in lockstep over one shared time
// grid, one SIMD lane per problem (see ode/batch.hpp for the layout
// and kern.hpp for the batched-kernel determinism policy).
//
// Every problem in a batch shares the NetworkProfile and the grid
// (t0, t1, dt, record_every); everything else — ModelParams, controls,
// initial state — varies per lane. Per lane the arithmetic is exactly
// the sequential scalar-backend path: lane l of a batch reproduces
// run_simulation(model_l, y0_l, options) bit for bit under
// RUMOR_KERNEL=scalar, and to ULP tolerance under the SIMD backends
// (whose sequential reductions reassociate; the batched ones do not).
#pragma once

#include <span>
#include <vector>

#include "core/profile.hpp"
#include "core/simulation.hpp"
#include "kern/kern.hpp"
#include "ode/batch.hpp"

namespace rumor::core {

/// Lane-interleaved model data for `lanes` problems over one shared
/// profile: λ(k_i), φ(k_i) = ω(k_i) P(k_i), and φ/⟨k⟩ per lane (params
/// may differ per lane), plus the per-lane α array — everything the
/// batched kern kernels consume.
class BatchSirModel {
 public:
  BatchSirModel(const NetworkProfile& profile,
                std::span<const ModelParams> params);

  std::size_t num_groups() const { return n_; }
  std::size_t lanes() const { return lanes_; }
  double mean_degree() const { return mean_k_; }
  const NetworkProfile& profile() const { return *profile_; }
  const double* lambdas() const { return lambda_.data(); }
  const double* phis() const { return phi_.data(); }
  const double* phis_over_k() const { return phi_over_k_.data(); }
  const double* alphas() const { return alpha_.data(); }

  /// One batched RK4 step; e1/e2 are stage-major 3×lanes control
  /// arrays, y/y_next are 2n·lanes, scratch holds
  /// kern::batch_scratch_doubles(n, lanes) doubles.
  void step(const double* y, const double* e1, const double* e2, double h,
            double* y_next, double* scratch) const {
    ops_->batch_sir_rk4_step(y, n_, lanes_, mean_k_, alpha_.data(), e1, e2,
                             lambda_.data(), phi_.data(), h, y_next, scratch);
  }

  /// Θ per lane for a flat state (out holds `lanes` doubles).
  void theta_into(const double* y, double* out) const;

 private:
  const NetworkProfile* profile_;
  std::size_t n_ = 0;
  std::size_t lanes_ = 0;
  double mean_k_ = 0.0;
  const kern::Ops* ops_;
  ode::aligned_vector<double> lambda_;      // n·lanes
  ode::aligned_vector<double> phi_;         // n·lanes
  ode::aligned_vector<double> phi_over_k_;  // n·lanes
  ode::aligned_vector<double> alpha_;       // lanes
};

/// Lockstep fixed-step RK4 over [t0, t1] for a whole batch: the
/// integrate_fixed time loop (ode::integrate_batch_loop) run once for all
/// lanes. `controls(t, h, e1, e2)` fills the stage-major 3×lanes control
/// arrays for the step starting at t; it is invoked with the same (t, h)
/// sequence the sequential path sees, so per-lane control sampling can
/// replicate it bit for bit.
template <typename StageControls>
void integrate_batch_fixed(const BatchSirModel& model, const double* y0,
                           double t0, double t1, double dt,
                           std::size_t record_every, StageControls&& controls,
                           ode::BatchWorkspace& ws, double* e1_stage,
                           double* e2_stage, ode::BatchTrajectory& out) {
  ode::integrate_batch_loop(
      y0, 2 * model.num_groups(), model.lanes(), t0, t1, dt, record_every,
      [&](double t, double h, const double* y, double* y_next) {
        controls(t, h, e1_stage, e2_stage);
        model.step(y, e1_stage, e2_stage, h, y_next, ws.scratch.data());
      },
      ws, out);
}

/// One lane of a batched forward run: per-lane params, CONSTANT
/// controls, and initial state (2n doubles, [S, I] layout).
struct BatchLaneSpec {
  ModelParams params;
  double epsilon1 = 0.0;
  double epsilon2 = 0.0;
  ode::State y0;
};

/// Batched run_simulation: integrates all specs lane-parallel (chunks
/// of kern::preferred_batch_lanes() lanes, thread-parallel across
/// chunks) and rebuilds one SimulationResult per spec — trajectory,
/// Θ / infected-density / total-infected series, extinction time —
/// so downstream consumers (elasticity functionals, bifurcation
/// scans) apply unchanged. Fixed-step RK4 only (options.method must be
/// kRk4, the batch kernels' method).
std::vector<SimulationResult> run_simulation_batch(
    const NetworkProfile& profile, std::span<const BatchLaneSpec> specs,
    const SimulationOptions& options);

}  // namespace rumor::core
