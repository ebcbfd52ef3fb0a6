#include "control/costate.hpp"

#include <limits>

#include "util/error.hpp"

namespace rumor::control {

BackwardCostateSystem::BackwardCostateSystem(
    const core::SirNetworkModel& model, const ode::Trajectory& state,
    const core::ControlSchedule& schedule, const CostParams& cost, double tf,
    bool diagonal_coupling)
    : model_(model),
      state_(state),
      schedule_(schedule),
      piecewise_schedule_(
          dynamic_cast<const core::PiecewiseLinearControl*>(&schedule)),
      cost_(cost),
      tf_(tf),
      diagonal_(diagonal_coupling),
      ops_(&kern::ops()),
      state_cursor_(state),
      y_scratch_(state.dimension(), 0.0),
      cached_t_(std::numeric_limits<double>::quiet_NaN()),
      fused_t_end_(std::numeric_limits<double>::quiet_NaN()) {
  cost_.validate();
  util::require(!state_.empty(), "BackwardCostateSystem: empty trajectory");
  util::require(state_.dimension() == model_.dimension(),
                "BackwardCostateSystem: trajectory dimension mismatch");
  util::require(tf_ > state_.front_time(),
                "BackwardCostateSystem: tf before trajectory start");
  const auto phi = model_.phis();
  const double mean_k = model_.profile().mean_degree();
  phi_over_k_.reserve(phi.size());
  for (double p : phi) phi_over_k_.push_back(p / mean_k);
}

void BackwardCostateSystem::rhs(double s, std::span<const double> w,
                                std::span<double> dwds) const {
  const std::size_t n = model_.num_groups();
  const double t = tf_ - s;
  // Everything that depends on t alone — the interpolated forward
  // state, the controls, Θ — is cached across the RK4 stages that share
  // a time point (stages 2 and 3). Backward integration queries t
  // monotonically (decreasing), so on a miss the cursor advance is O(1)
  // and the interpolation writes into the member scratch — no
  // allocation, no binary search.
  if (t != cached_t_) {
    state_cursor_.at_into(t, y_scratch_);
    const auto [e1, e2] = piecewise_schedule_ != nullptr
                              ? piecewise_schedule_->epsilons(t)
                              : schedule_.epsilons(t);
    cached_e1_ = e1;
    cached_e2_ = e2;
    const auto phi = model_.phis();  // ϕ_i = ω(k_i) P(k_i)
    const double* Ii = y_scratch_.data() + n;
    cached_theta_ =
        ops_->dot(phi.data(), Ii, n) / model_.profile().mean_degree();
    cached_t_ = t;
  }
  const double* S = y_scratch_.data();
  const double* I = y_scratch_.data() + n;
  const double* psi = w.data();
  const double* phi_costate = w.data() + n;

  const double e1 = cached_e1_;
  const double e2 = cached_e2_;
  // The kernel computes the cross-group factor Σ_i (ψ_i − φ_i) λ_i S_i
  // of the full adjoint (skipped in the diagonal truncation), then the
  // fused per-group body in the reversed clock.
  const double c1e1 = -2.0 * cost_.c1 * e1 * e1;
  const double c2e2 = -2.0 * cost_.c2 * e2 * e2;
  ops_->costate_rhs(S, I, psi, phi_costate, model_.lambdas().data(),
                    phi_over_k_.data(), n, c1e1, c2e2, e1, e2, cached_theta_,
                    diagonal_, dwds.data(), dwds.data() + n);
}

bool BackwardCostateSystem::fused_rk4_step(double s, std::span<const double> w,
                                           double h,
                                           std::span<double> w_next) const {
  const std::size_t n = model_.num_groups();
  const std::size_t scratch_size = kern::fused_scratch_doubles(n);
  if (rk4_scratch_.size() != scratch_size) {
    rk4_scratch_.assign(scratch_size, 0.0);
    y0_.assign(2 * n, 0.0);
    ymid_.assign(2 * n, 0.0);
    y1_.assign(2 * n, 0.0);
  }
  // Reversed clock: stage times s, s+h/2, s+h read the forward solution
  // at decreasing t, keeping the cursor walk monotone.
  const double t0 = tf_ - s;
  double theta[3], e1[3], e2[3];
  const auto sample = [&](double t, ode::State& y, std::size_t k) {
    state_cursor_.at_into(t, y);
    const auto [a, b] = piecewise_schedule_ != nullptr
                            ? piecewise_schedule_->epsilons(t)
                            : schedule_.epsilons(t);
    e1[k] = a;
    e2[k] = b;
    theta[k] = ops_->dot(model_.phis().data(), y.data() + n, n) /
               model_.profile().mean_degree();
  };
  if (t0 == fused_t_end_) {
    // This step's first stage is the previous step's last (the fixed
    // grid advances s by exactly h): reuse that sample unchanged.
    std::swap(y0_, y1_);
    theta[0] = fused_theta_end_;
    e1[0] = fused_e1_end_;
    e2[0] = fused_e2_end_;
  } else {
    sample(t0, y0_, 0);
  }
  sample(tf_ - (s + 0.5 * h), ymid_, 1);
  sample(tf_ - (s + h), y1_, 2);
  fused_t_end_ = tf_ - (s + h);
  fused_theta_end_ = theta[2];
  fused_e1_end_ = e1[2];
  fused_e2_end_ = e2[2];
  ops_->costate_rk4_step(w.data(), n, y0_.data(), ymid_.data(), y1_.data(),
                         model_.lambdas().data(), phi_over_k_.data(), theta,
                         e1, e2, cost_.c1, cost_.c2, h, diagonal_,
                         w_next.data(), rk4_scratch_.data());
  return true;
}

ode::State BackwardCostateSystem::terminal_costate() const {
  const std::size_t n = model_.num_groups();
  ode::State w(2 * n, 0.0);
  for (std::size_t j = 0; j < n; ++j) w[n + j] = cost_.terminal_weight;
  return w;
}

StationaryControls stationary_controls(const KnotProducts& products,
                                       const CostParams& cost) {
  StationaryControls out;
  // Degenerate denominators (all-zero S or I) mean the control has no
  // effect; zero effort is then optimal for the quadratic cost.
  out.epsilon1 =
      products.s2 > 0.0 ? products.psi_s / (2.0 * cost.c1 * products.s2) : 0.0;
  out.epsilon2 =
      products.i2 > 0.0 ? products.phi_i / (2.0 * cost.c2 * products.i2) : 0.0;
  return out;
}

StationaryControls stationary_controls(std::span<const double> y,
                                       std::span<const double> w,
                                       std::size_t num_groups,
                                       const CostParams& cost) {
  double p[4];
  kern::ops().knot4(y.data(), y.data() + num_groups, w.data(),
                    w.data() + num_groups, num_groups, p);
  return stationary_controls(KnotProducts{p[0], p[1], p[2], p[3]}, cost);
}

}  // namespace rumor::control
