// The Pontryagin costate (adjoint) system — paper Eqs. (15)-(16).
//
// With Hamiltonian
//   H = Σ_i [c1 ε1² S_i² + c2 ε2² I_i²]
//     + Σ_i ψ_i (α − λ_i S_i Θ − ε1 S_i)
//     + Σ_i φ_i (λ_i S_i Θ − ε2 I_i),
// the adjoint equations dψ_j/dt = −∂H/∂S_j, dφ_j/dt = −∂H/∂I_j are
//
//   dψ_j/dt = −2 c1 ε1² S_j + ψ_j (λ_j Θ + ε1) − φ_j λ_j Θ
//   dφ_j/dt = −2 c2 ε2² I_j + (ϕ_j/⟨k⟩) Σ_i (ψ_i − φ_i) λ_i S_i + φ_j ε2
//
// where ϕ_j = ω(k_j) P(k_j). The I-adjoint couples across groups because
// Θ depends on every I_i. The paper's printed Eq. (16) keeps only the
// i = j term of that sum; we implement the full coupling by default and
// the paper's diagonal truncation behind a flag (compared in the
// ablation bench — the truncation is a genuine approximation for n > 1).
//
// Transversality (from the terminal term W Σ I_i(tf)):
//   ψ_j(tf) = 0,  φ_j(tf) = W.
//
// The system is integrated backward by the time substitution s = tf − t,
// under which dw/ds = −dw/dt and the state trajectory is read at tf − s.
#pragma once

#include "control/objective.hpp"
#include "core/schedule.hpp"
#include "core/sir_model.hpp"
#include "kern/kern.hpp"
#include "ode/system.hpp"
#include "ode/trajectory.hpp"

namespace rumor::control {

/// Adjoint RHS in the reversed clock s = tf − t. Costate layout:
/// w = [ψ_1..ψ_n, φ_1..φ_n].
///
/// The RHS is allocation-free: the forward state is read through a
/// trajectory cursor into a preallocated scratch buffer, and the
/// λ_j and ϕ_j/⟨k⟩ coupling coefficients are precomputed once. The
/// cursor makes the instance stateful, so it is not thread-safe — use
/// one system per concurrent backward integration.
class BackwardCostateSystem final : public ode::OdeSystem {
 public:
  /// `state` is the forward solution on [t0, tf] (read by interpolation),
  /// `schedule` the controls the forward pass used. Both must outlive
  /// this object. `diagonal_coupling` selects the paper's truncated (16).
  BackwardCostateSystem(const core::SirNetworkModel& model,
                        const ode::Trajectory& state,
                        const core::ControlSchedule& schedule,
                        const CostParams& cost, double tf,
                        bool diagonal_coupling = false);

  std::size_t dimension() const override {
    return 2 * model_.num_groups();
  }

  void rhs(double s, std::span<const double> w,
           std::span<double> dwds) const override;

  bool fused_rk4_step(double s, std::span<const double> w, double h,
                      std::span<double> w_next) const override;

  /// Terminal condition at s = 0 (i.e. t = tf): ψ = 0, φ = W.
  ode::State terminal_costate() const;

 private:
  const core::SirNetworkModel& model_;
  const ode::Trajectory& state_;
  const core::ControlSchedule& schedule_;
  const core::PiecewiseLinearControl* piecewise_schedule_;  ///< devirtualized
  CostParams cost_;
  double tf_;
  bool diagonal_;
  const kern::Ops* ops_;                  ///< dispatched kernel table
  std::vector<double> phi_over_k_;        ///< ϕ_j/⟨k⟩, precomputed
  mutable ode::Trajectory::Cursor state_cursor_;
  mutable ode::State y_scratch_;          ///< interpolated forward state
  // Stage cache: RK4 evaluates two of its four stages at the same time
  // point, and the interpolated state, controls, and Θ depend on t only
  // (the costate-dependent coupling term is always recomputed). Reusing
  // the previous values is bit-identical by construction.
  mutable double cached_t_;
  mutable double cached_e1_ = 0.0;
  mutable double cached_e2_ = 0.0;
  mutable double cached_theta_ = 0.0;
  // Fused-step buffers: the forward state interpolated at the three RK4
  // stage times, plus kernel scratch. The backward grid advances by
  // exactly h, so each step's first stage time equals the previous
  // step's last — the *_end_ cache carries that sample over (the fused
  // analogue of the cached_t_ stage cache above).
  mutable ode::State y0_, ymid_, y1_;
  mutable std::vector<double> rk4_scratch_;
  mutable double fused_t_end_;
  mutable double fused_e1_end_ = 0.0;
  mutable double fused_e2_end_ = 0.0;
  mutable double fused_theta_end_ = 0.0;
};

/// The four state/costate contractions shared by the stationary-control
/// formula (18) and the control gradient ∂H/∂ε:
///   Σψ_i S_i, ΣS_i², Σφ_i I_i, ΣI_i².
struct KnotProducts {
  double psi_s = 0.0;
  double s2 = 0.0;
  double phi_i = 0.0;
  double i2 = 0.0;
};

/// Interior stationary controls from the costate (paper Eq. (18)):
///   ε1 = Σ ψ_i S_i / (2 c1 Σ S_i²),  ε2 = Σ φ_i I_i / (2 c2 Σ I_i²),
/// before projection onto the admissible box (Eq. (19)).
struct StationaryControls {
  double epsilon1 = 0.0;
  double epsilon2 = 0.0;
};
StationaryControls stationary_controls(std::span<const double> y,
                                       std::span<const double> w,
                                       std::size_t num_groups,
                                       const CostParams& cost);
/// Same formula from precomputed contractions (the sweep's knot loop
/// evaluates the products once and shares them with the gradient path).
StationaryControls stationary_controls(const KnotProducts& products,
                                       const CostParams& cost);

}  // namespace rumor::control
