#include "control/fbsweep.hpp"

#include <memory>
#include <utility>

#include "control/sweep_driver.hpp"
#include "ode/integrate.hpp"
#include "util/error.hpp"
#include "util/math.hpp"
#include "util/parallel.hpp"

namespace rumor::control {

namespace {

// Forward-time view of the backward costate solution: sample k of the
// backward run is at s_k = tf − t, so reverse it into a Trajectory
// indexed by t for reporting and interpolation. Writes into `forward`
// (reset, capacity kept) so the sweep reuses one buffer.
void reverse_costate_into(const ode::Trajectory& backward, double tf,
                          ode::Trajectory& forward) {
  forward.reset(backward.dimension());
  for (std::size_t k = backward.size(); k-- > 0;) {
    const double t = tf - backward.times()[k];
    // Guard against duplicate knots from floating-point endpoints.
    if (!forward.empty() && t <= forward.back_time()) continue;
    forward.push_back(t, backward.state(k));
  }
}

// One problem, stored contiguously, so the per-solve fused kernels run
// SIMD over the groups. Every trajectory is reused across passes: after
// the first pass the sweep reallocates none of them.
class ContiguousLayout final : public SweepLayout {
 public:
  ContiguousLayout(const core::SirNetworkModel& model, const ode::State& y0,
                   double tf, const CostParams& cost,
                   const SweepOptions& options,
                   const std::vector<double>& grid)
      // The sweep sets its own schedule on a copy of the model, so the
      // caller's model is untouched.
      : work_(model.profile(), model.params(),
              core::make_constant_control(0.0, 0.0)),
        y0_(y0),
        tf_(tf),
        cost_(cost),
        grid_(grid),
        diagonal_(options.diagonal_costate) {
    fixed_.dt = (grid[1] - grid[0]) / static_cast<double>(options.substeps);
    fixed_.record_every = options.substeps;  // samples land on the knots
  }

  void forward(const double* e1, const double* e2, Pass pass,
               double* running, double* terminal) override {
    ode::Trajectory& into = pass == Pass::kState ? state_ : trial_;
    const auto schedule = schedule_of(e1, e2);
    work_.set_control(schedule);
    ode::integrate_fixed_into(work_, stepper_, y0_, 0.0, tf_, fixed_, into);
    const CostBreakdown cost =
        evaluate_cost(work_, into, *schedule, cost_, integrand_);
    *running = cost.running;
    *terminal = cost.terminal;
  }

  std::size_t num_groups() const override { return work_.num_groups(); }

  const double* last_sample(Pass pass) const override {
    return (pass == Pass::kState ? state_ : trial_).back_state().data();
  }

  void backward(const double* e1, const double* e2) override {
    const auto schedule = schedule_of(e1, e2);
    BackwardCostateSystem adjoint(work_, state_, *schedule, cost_, tf_,
                                  diagonal_);
    ode::integrate_fixed_into(adjoint, stepper_, adjoint.terminal_costate(),
                              0.0, tf_, fixed_, backward_);
    reverse_costate_into(backward_, tf_, costate_);
  }

  // Cursor interpolation (the knots are visited in increasing time
  // order), parallel over knots when the problem is big enough to
  // amortize the pool dispatch; per-knot results are independent, so the
  // outcome is identical at any thread count.
  void knot_products(double* out) override {
    const std::size_t m = grid_.size();
    const std::size_t n = work_.num_groups();
    // Below this many flops the pool dispatch costs more than the loop.
    const std::size_t grain = (m * n >= 4096) ? 32 : m;
    const kern::Ops& ops = kern::ops();
    util::parallel_for_chunks(
        0, m, grain, [&](std::size_t, std::size_t lo, std::size_t hi) {
          ode::Trajectory::Cursor state_cursor(state_);
          ode::Trajectory::Cursor costate_cursor(costate_);
          ode::State y(2 * n), w(2 * n);
          for (std::size_t k = lo; k < hi; ++k) {
            state_cursor.at_into(grid_[k], y);
            costate_cursor.at_into(grid_[k], w);
            ops.knot4(y.data(), y.data() + n, w.data(), w.data() + n, n,
                      out + 4 * k);
          }
        });
  }

  void swap_trial() override { std::swap(state_, trial_); }

  void extract(std::size_t, ode::Trajectory& state,
               ode::Trajectory& costate) const override {
    state = state_;
    costate = costate_;
  }

 private:
  std::shared_ptr<const core::PiecewiseLinearControl> schedule_of(
      const double* e1, const double* e2) const {
    const std::size_t m = grid_.size();
    return std::make_shared<core::PiecewiseLinearControl>(
        grid_, std::vector<double>(e1, e1 + m),
        std::vector<double>(e2, e2 + m));
  }

  core::SirNetworkModel work_;
  const ode::State& y0_;
  double tf_;
  CostParams cost_;
  const std::vector<double>& grid_;
  bool diagonal_;
  ode::Rk4Stepper stepper_;
  ode::FixedStepOptions fixed_;
  ode::Trajectory state_;     ///< forward pass
  ode::Trajectory trial_;     ///< line-search candidate forward pass
  ode::Trajectory backward_;  ///< costate in the reversed clock
  ode::Trajectory costate_;   ///< costate re-based to forward time
  std::vector<double> integrand_;  ///< evaluate_cost scratch
};

}  // namespace

SweepResult solve_optimal_control(const core::SirNetworkModel& model,
                                  const ode::State& y0, double tf,
                                  const CostParams& cost,
                                  const SweepOptions& options) {
  cost.validate();
  validate_sweep(options, tf, "solve_optimal_control");
  util::require(options.checkpoint_every >= 1,
                "solve_optimal_control: checkpoint_every must be >= 1");
  util::require(options.epsilon1_max > 0.0 && options.epsilon2_max > 0.0,
                "solve_optimal_control: box bounds must be positive");
  util::require(y0.size() == model.dimension(),
                "solve_optimal_control: initial state dimension mismatch");

  const std::vector<double> grid =
      util::linspace(0.0, tf, options.grid_points);
  ContiguousLayout layout(model, y0, tf, cost, options, grid);
  const SweepLane lane{cost, options.epsilon1_max, options.epsilon2_max,
                       options.initial_guess};
  BatchSolveReport report;
  run_sweep(layout, grid, tf, options, {&lane, 1}, "solve_optimal_control",
            {&report, 1});
  if (report.failed) throw util::InternalError(report.error);
  return std::move(report.result);
}

SweepResult solve_with_terminal_target(const core::SirNetworkModel& model,
                                       const ode::State& y0, double tf,
                                       const CostParams& cost,
                                       double terminal_target,
                                       const SweepOptions& options,
                                       double weight_factor,
                                       std::size_t max_escalations) {
  util::require(terminal_target > 0.0,
                "solve_with_terminal_target: target must be positive");
  util::require(weight_factor > 1.0,
                "solve_with_terminal_target: weight factor must exceed 1");

  CostParams escalated = cost;
  for (std::size_t attempt = 0; attempt <= max_escalations; ++attempt) {
    SweepResult result =
        solve_optimal_control(model, y0, tf, escalated, options);
    const double terminal =
        model.total_infected(result.state.back_state());
    if (terminal <= terminal_target) {
      // Report the cost under the caller's weight so costs are
      // comparable across different escalation depths.
      result.cost = evaluate_cost(
          core::SirNetworkModel(model.profile(), model.params(),
                                result.control),
          result.state, *result.control, cost);
      return result;
    }
    escalated.terminal_weight *= weight_factor;
  }
  throw util::InvalidArgument(
      "solve_with_terminal_target: terminal infection target unreachable "
      "within the admissible control box");
}

}  // namespace rumor::control
