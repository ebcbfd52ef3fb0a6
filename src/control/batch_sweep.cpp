#include "control/batch_sweep.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "control/sweep_driver.hpp"
#include "core/batch_sim.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/math.hpp"
#include "util/parallel.hpp"

namespace rumor::control {

namespace {

// Per-lane piecewise-linear control sampling on the SHARED grid — the
// exact arithmetic of PiecewiseLinearControl::epsilons, with one
// segment lookup serving every lane and a walking hint for the
// monotone query sequences each pass produces (the hint only
// accelerates; it never changes the result).
class KnotSampler {
 public:
  // e1/e2 are knot-major arrays: knot k's per-lane values are the
  // contiguous block e[k*lanes .. k*lanes + lanes), so the lane loop
  // below is unit-stride (auto-vectorizable) in every branch.
  KnotSampler(const std::vector<double>& grid, const double* e1,
              const double* e2, std::size_t lanes)
      : grid_(&grid), e1_(e1), e2_(e2), m_(grid.size()), lanes_(lanes) {}

  void sample(double t, double* o1, double* o2) {
    const std::vector<double>& grid = *grid_;
    if (t <= grid.front()) {
      std::copy(e1_, e1_ + lanes_, o1);
      std::copy(e2_, e2_ + lanes_, o2);
      return;
    }
    if (t >= grid.back()) {
      std::copy(e1_ + (m_ - 1) * lanes_, e1_ + m_ * lanes_, o1);
      std::copy(e2_ + (m_ - 1) * lanes_, e2_ + m_ * lanes_, o2);
      return;
    }
    const std::size_t hi = hint_ = core::walk_upper_knot(grid, t, hint_);
    const std::size_t lo = hi - 1;
    const double w = (t - grid[lo]) / (grid[hi] - grid[lo]);
    const double* lo1 = e1_ + lo * lanes_;
    const double* hi1 = e1_ + hi * lanes_;
    const double* lo2 = e2_ + lo * lanes_;
    const double* hi2 = e2_ + hi * lanes_;
    for (std::size_t l = 0; l < lanes_; ++l) {
      o1[l] = (1.0 - w) * lo1[l] + w * hi1[l];
      o2[l] = (1.0 - w) * lo2[l] + w * hi2[l];
    }
  }

 private:
  const std::vector<double>* grid_;
  const double* e1_;
  const double* e2_;
  std::size_t m_;
  std::size_t lanes_;
  std::size_t hint_ = 1;
};

// One chunk of problems interleaved one per SIMD lane, run by the
// batched kernels. Every buffer is sized once in the constructor and
// reused across passes; after the first pass fills the trajectory
// capacities no pass allocates.
class InterleavedLayout final : public SweepLayout {
 public:
  InterleavedLayout(const core::NetworkProfile& profile,
                    std::span<const BatchProblem> problems,
                    const std::vector<double>& grid, double tf,
                    const SweepOptions& options)
      : tf_(tf),
        n_(profile.num_groups()),
        L_(problems.size()),
        grid_(grid),
        diagonal_(options.diagonal_costate),
        ops_(&kern::ops()),
        model_(profile, lane_params(problems)),
        step_dt_((grid[1] - grid[0]) / static_cast<double>(options.substeps)),
        record_every_(options.substeps) {
    const std::size_t flat = 2 * n_ * L_;
    y0_.resize(flat);
    c1_.resize(L_);
    c2_.resize(L_);
    wterm_.resize(L_);
    // Transversality: ψ(tf) = 0, φ(tf) = W per lane.
    w_terminal_.assign(flat, 0.0);
    for (std::size_t l = 0; l < L_; ++l) {
      const BatchProblem& p = problems[l];
      ode::scatter_lane(p.y0.data(), 2 * n_, L_, l, y0_.data());
      c1_[l] = p.cost.c1;
      c2_[l] = p.cost.c2;
      wterm_[l] = p.cost.terminal_weight;
      for (std::size_t j = 0; j < n_; ++j) {
        w_terminal_[(n_ + j) * L_ + l] = wterm_[l];
      }
    }
    ws_.resize(flat, kern::batch_scratch_doubles(n_, L_));
    e1_stage_.resize(3 * L_);
    e2_stage_.resize(3 * L_);
    theta_stage_.resize(3 * L_);
    ys0_.resize(flat);
    ysmid_.resize(flat);
    ys1_.resize(flat);
    yk_.resize(flat);
    wk_.resize(flat);
    ev1_.resize(L_);
    ev2_.resize(L_);
    s2_.resize(L_);
    i2_.resize(L_);
  }

  // Batched forward pass and cost. The stage sampling replicates the
  // sequential fused step, which reads the schedule at t, t + h/2, t + h.
  void forward(const double* e1, const double* e2, Pass pass,
               double* running, double* terminal) override {
    ode::BatchTrajectory& out = pass == Pass::kState ? state_ : trial_;
    KnotSampler sched(grid_, e1, e2, L_);
    core::integrate_batch_fixed(
        model_, y0_.data(), 0.0, tf_, step_dt_, record_every_,
        [&](double t, double h, double* s1, double* s2) {
          sched.sample(t, s1, s2);
          sched.sample(t + 0.5 * h, s1 + L_, s2 + L_);
          sched.sample(t + h, s1 + 2 * L_, s2 + 2 * L_);
        },
        ws_, e1_stage_.data(), e2_stage_.data(), out);
    evaluate(out, e1, e2, running, terminal);
  }

  std::size_t num_groups() const override { return n_; }

  const double* last_sample(Pass pass) const override {
    return (pass == Pass::kState ? state_ : trial_).back_sample();
  }

  // Batched BackwardCostateSystem in the reversed clock s = tf − t: the
  // same stage sampling (the previous step's last stage carried into the
  // next step's first), then the re-basing to forward time.
  void backward(const double* e1, const double* e2) override {
    KnotSampler sched(grid_, e1, e2, L_);
    std::size_t hint = 1;
    const auto sample_stage = [&](double t, double* y_flat, std::size_t k) {
      const ode::BatchTrajectory::Segment seg = state_.locate(t, hint);
      hint = seg.hi;
      state_.sample_at(seg, t, y_flat);
      sched.sample(t, e1_stage_.data() + k * L_, e2_stage_.data() + k * L_);
      model_.theta_into(y_flat, theta_stage_.data() + k * L_);
    };
    double carry_t_end = std::numeric_limits<double>::quiet_NaN();
    ode::integrate_batch_loop(
        w_terminal_.data(), 2 * n_, L_, 0.0, tf_, step_dt_, record_every_,
        [&](double s, double h, const double* w, double* w_next) {
          const double t0 = tf_ - s;
          if (t0 == carry_t_end) {
            // This step's first stage is the previous step's last (the
            // fixed grid advances s by exactly h): reuse the sample.
            ys0_.swap(ys1_);
            for (auto* stage : {&theta_stage_, &e1_stage_, &e2_stage_}) {
              std::copy(stage->begin() + 2 * L_, stage->end(), stage->begin());
            }
          } else {
            sample_stage(t0, ys0_.data(), 0);
          }
          sample_stage(tf_ - (s + 0.5 * h), ysmid_.data(), 1);
          sample_stage(tf_ - (s + h), ys1_.data(), 2);
          carry_t_end = tf_ - (s + h);
          ops_->batch_costate_rk4_step(
              w, n_, L_, ys0_.data(), ysmid_.data(), ys1_.data(),
              model_.lambdas(), model_.phis_over_k(), theta_stage_.data(),
              e1_stage_.data(), e2_stage_.data(), c1_.data(), c2_.data(), h,
              diagonal_, w_next, ws_.scratch.data());
        },
        ws_, backward_);

    // reverse_costate_into: forward-time view, duplicate knots skipped.
    costate_.reset(2 * n_, L_);
    for (std::size_t k = backward_.size(); k-- > 0;) {
      const double t = tf_ - backward_.times()[k];
      if (!costate_.empty() && t <= costate_.back_time()) continue;
      costate_.push_back(t, backward_.sample(k));
    }
  }

  void knot_products(double* out) override {
    std::size_t hint_y = 1;
    std::size_t hint_w = 1;
    for (std::size_t k = 0; k < grid_.size(); ++k) {
      const double t = grid_[k];
      const ode::BatchTrajectory::Segment sy = state_.locate(t, hint_y);
      hint_y = sy.hi;
      state_.sample_at(sy, t, yk_.data());
      const ode::BatchTrajectory::Segment sw = costate_.locate(t, hint_w);
      hint_w = sw.hi;
      costate_.sample_at(sw, t, wk_.data());
      ops_->batch_knot4(yk_.data(), yk_.data() + n_ * L_, wk_.data(),
                        wk_.data() + n_ * L_, n_, L_, out + 4 * k * L_);
    }
  }

  void swap_trial() override { std::swap(state_, trial_); }

  void extract(std::size_t lane, ode::Trajectory& state,
               ode::Trajectory& costate) const override {
    std::vector<double> sample(2 * n_);
    for (auto [from, to] :
         {std::pair{&state_, &state}, {&costate_, &costate}}) {
      to->reset(2 * n_);
      for (std::size_t k = 0; k < from->size(); ++k) {
        from->extract_lane(k, lane, sample.data());
        to->push_back(from->times()[k], sample);
      }
    }
  }

 private:
  static std::vector<core::ModelParams> lane_params(
      std::span<const BatchProblem> problems) {
    std::vector<core::ModelParams> out;
    out.reserve(problems.size());
    for (const BatchProblem& p : problems) out.push_back(p.params);
    return out;
  }

  // Batched evaluate_cost: per-lane running and terminal parts.
  void evaluate(const ode::BatchTrajectory& traj, const double* e1,
                const double* e2, double* running, double* terminal) {
    const std::size_t count = traj.size();
    KnotSampler sched(grid_, e1, e2, L_);
    integrand_.resize(count * L_);
    for (std::size_t k = 0; k < count; ++k) {
      sched.sample(traj.times()[k], ev1_.data(), ev2_.data());
      const double* y = traj.sample(k);
      ops_->batch_dot(y, y, n_, L_, s2_.data());
      ops_->batch_dot(y + n_ * L_, y + n_ * L_, n_, L_, i2_.data());
      for (std::size_t l = 0; l < L_; ++l) {
        integrand_[k * L_ + l] = c1_[l] * ev1_[l] * ev1_[l] * s2_[l] +
                                 c2_[l] * ev2_[l] * ev2_[l] * i2_[l];
      }
    }
    ops_->batch_trapezoid(traj.times().data(), integrand_.data(), count, L_,
                          running);
    const double* yb = traj.back_sample();
    for (std::size_t l = 0; l < L_; ++l) {
      double total = 0.0;
      for (std::size_t j = 0; j < n_; ++j) total += yb[(n_ + j) * L_ + l];
      terminal[l] = wterm_[l] * total;
    }
  }

  double tf_;
  std::size_t n_, L_;
  const std::vector<double>& grid_;
  bool diagonal_;
  const kern::Ops* ops_;
  core::BatchSirModel model_;
  double step_dt_;
  std::size_t record_every_;

  // Per-lane problem data.
  ode::aligned_vector<double> y0_, w_terminal_;  // 2n·L
  std::vector<double> c1_, c2_, wterm_;  // L

  ode::BatchWorkspace ws_;
  ode::aligned_vector<double> e1_stage_, e2_stage_, theta_stage_;  // 3L
  ode::aligned_vector<double> ys0_, ysmid_, ys1_;                  // 2nL
  ode::aligned_vector<double> yk_, wk_;                            // 2nL
  std::vector<double> ev1_, ev2_, s2_, i2_;                        // L
  std::vector<double> integrand_;
  ode::BatchTrajectory state_, trial_, backward_, costate_;
};

}  // namespace

std::vector<BatchSolveReport> solve_optimal_control_batch(
    const core::NetworkProfile& profile,
    std::span<const BatchProblem> problems, double tf,
    const SweepOptions& options, std::size_t lanes) {
  util::require(!problems.empty(),
                "solve_optimal_control_batch: no problems");
  validate_sweep(options, tf, "solve_optimal_control_batch");
  const std::size_t n = profile.num_groups();
  std::vector<SweepLane> lane_settings;
  lane_settings.reserve(problems.size());
  for (const BatchProblem& p : problems) {
    p.cost.validate();
    p.params.validate();
    const SweepLane lane{
        p.cost, p.epsilon1_max >= 0.0 ? p.epsilon1_max : options.epsilon1_max,
        p.epsilon2_max >= 0.0 ? p.epsilon2_max : options.epsilon2_max,
        p.initial_guess >= 0.0 ? p.initial_guess : options.initial_guess};
    util::require(lane.epsilon1_max > 0.0 && lane.epsilon2_max > 0.0,
                  "solve_optimal_control_batch: box bounds must be positive");
    util::require(
        p.y0.size() == 2 * n,
        "solve_optimal_control_batch: initial state dimension mismatch");
    lane_settings.push_back(lane);
  }
  // A SWEEPCKP file holds one problem, and a batch is not a preemptible
  // job: checkpointing and keep_going stay off.
  SweepOptions batch_options = options;
  batch_options.checkpoint_path.clear();
  batch_options.keep_going = nullptr;

  static obs::Counter& batch_solves =
      obs::metrics().counter("control.batch_solves");
  batch_solves.add(problems.size());
  const std::vector<double> grid =
      util::linspace(0.0, tf, options.grid_points);
  const std::size_t batch =
      lanes != 0 ? lanes : kern::preferred_batch_lanes();
  const std::size_t total = problems.size();
  const std::size_t num_chunks = (total + batch - 1) / batch;
  std::vector<BatchSolveReport> reports(total);
  util::parallel_for(
      std::size_t{0}, num_chunks, /*grain=*/1, [&](std::size_t c) {
        const std::size_t lo = c * batch;
        const std::size_t count = std::min(batch, total - lo);
        InterleavedLayout layout(profile, problems.subspan(lo, count), grid,
                                 tf, batch_options);
        run_sweep(layout, grid, tf, batch_options,
                  std::span<const SweepLane>(lane_settings).subspan(lo, count),
                  "solve_optimal_control_batch",
                  std::span<BatchSolveReport>(reports).subspan(lo, count));
      });
  return reports;
}

}  // namespace rumor::control
