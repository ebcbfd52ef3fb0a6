#include "control/sweep_driver.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "control/checkpoint.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/math.hpp"

namespace rumor::control {

namespace {

// Registry handles, resolved once (registration locks; recording never
// does).
struct ControlMetrics {
  obs::Counter& fbsm_iterations;
  obs::Counter& pg_iterations;
  obs::Counter& pg_accepts;
  obs::Counter& pg_backtracks;
  obs::Gauge& update_norm;
};

ControlMetrics& control_metrics() {
  static ControlMetrics* const m = [] {
    obs::Registry& r = obs::metrics();
    return new ControlMetrics{r.counter("fbsm.iterations"),
                              r.counter("pg.iterations"),
                              r.counter("pg.accepts"),
                              r.counter("pg.backtracks"),
                              r.gauge("control.update_norm")};
  }();
  return *m;
}

constexpr const char* kInvalidForward =
    "forward pass produced an invalid state (non-finite or negative "
    "infected density) — the explicit integrator is unstable at this step "
    "size; increase substeps or grid_points";
constexpr const char* kNonFiniteStationary =
    "non-finite stationary control — the forward or backward pass "
    "diverged; increase substeps or grid_points";

class SweepDriver {
 public:
  SweepDriver(SweepLayout& layout, const std::vector<double>& grid, double tf,
              const SweepOptions& options, std::span<const SweepLane> lanes,
              const char* who, std::span<BatchSolveReport> reports)
      : layout_(layout),
        grid_(grid),
        tf_(tf),
        opt_(options),
        lanes_(lanes),
        who_(who),
        reports_(reports),
        pg_(options.algorithm == SweepAlgorithm::kProjectedGradient),
        m_(grid.size()),
        L_(lanes.size()),
        n_(layout.num_groups()),
        checkpointing_(!options.checkpoint_path.empty()),
        e1_(m_ * L_),
        e2_(m_ * L_),
        g1_(m_ * L_),
        g2_(m_ * L_),
        t1_(m_ * L_),
        t2_(m_ * L_),
        products_(4 * m_ * L_),
        running_(L_),
        terminal_(L_),
        objective_(L_),
        update_(L_),
        decrease_(L_),
        step_(L_, options.gradient_initial_step),
        // FBSM is a fixed-point iteration, not a descent method; it keeps
        // the best iterate seen so a late limit cycle cannot degrade the
        // answer. Adaptive damping: when the iteration falls into a limit
        // cycle (detected through an exactly repeating objective), raise
        // the relaxation toward 1 — heavier damping turns a repelling
        // fixed point attracting (standard FBSM stabilization).
        best_j_(L_, std::numeric_limits<double>::infinity()),
        relax_(L_, options.relaxation),
        streak_(L_, 0),
        active_(L_, 1),
        searching_(L_, 0),
        num_active_(L_) {
    for (std::size_t l = 0; l < L_; ++l) {
      const SweepLane& lane = lanes_[l];
      const double g1 = util::clamp(lane.initial_guess, 0.0, lane.epsilon1_max);
      const double g2 = util::clamp(lane.initial_guess, 0.0, lane.epsilon2_max);
      for (std::size_t k = 0; k < m_; ++k) {
        e1_[k * L_ + l] = g1;
        e2_[k * L_ + l] = g2;
      }
      reports_[l].result.grid = grid_;
    }
    best_e1_ = e1_;
    best_e2_ = e2_;
  }

  // FBSM: (2) forward state pass under the current controls, (3)
  // backward costate pass, (4) stationary controls projected onto the
  // box and relaxed. PG: the same costate gives the gradient, and an
  // Armijo search on the projected step moves the controls; its state
  // pass and J carry over from the accepted step.
  void run() {
    const std::size_t first_iter = resume();
    if (pg_) forward_state();
    for (std::size_t iter = first_iter;
         iter <= opt_.max_iterations && num_active_ > 0; ++iter) {
      if (yield(iter, first_iter)) break;
      const obs::TraceSpan iter_span(pg_ ? "pg.iteration" : "fbsm.iteration");
      ControlMetrics& metrics = control_metrics();
      (pg_ ? metrics.pg_iterations : metrics.fbsm_iterations).add(num_active_);
      if (!pg_) {
        forward_state();
        if (num_active_ == 0) break;
      }
      for (std::size_t l = 0; l < L_; ++l) {
        if (!active_[l]) continue;
        SweepResult& r = reports_[l].result;
        r.iterations = iter;
        r.objective_history.push_back(objective_[l]);
        if (!pg_) track_best_and_damping(l);
      }
      layout_.backward(e1_.data(), e2_.data());
      layout_.knot_products(products_.data());
      update_controls();
      if (num_active_ == 0) break;

      double max_update = 0.0;
      for (std::size_t l = 0; l < L_; ++l) {
        if (!active_[l]) continue;
        reports_[l].result.final_update = update_[l];
        max_update = std::max(max_update, update_[l]);
        if (settled(l)) converge(l);
      }
      metrics.update_norm.set(max_update);
      if (pg_ && num_active_ > 0) line_search();
      if (checkpointing_ && num_active_ > 0 &&
          (iter % opt_.checkpoint_every == 0 || iter == opt_.max_iterations)) {
        save_checkpoint(iter);
      }
    }
    log_outcome();
    // FBSM reports its best iterate, PG its current (monotone-best) one.
    finish(pg_ ? e1_ : best_e1_, pg_ ? e2_ : best_e2_);
  }

 private:
  // Forward pass of the current controls into the state buffer, with
  // each lane's J; an active lane whose pass is invalid fails.
  void forward_state() {
    layout_.forward(e1_.data(), e2_.data(), Pass::kState, running_.data(),
                    terminal_.data());
    for (std::size_t l = 0; l < L_; ++l) {
      objective_[l] = terminal_[l] + running_[l];
      if (active_[l] && !lane_valid(Pass::kState, l)) {
        fail(l, kInvalidForward);
      }
    }
  }

  // The forward integration is explicit; on stiff profiles an oversized
  // step produces finite-but-meaningless states (e.g. negative infected
  // densities), which would silently corrupt the optimization.
  bool lane_valid(Pass pass, std::size_t l) const {
    const double* y = layout_.last_sample(pass);
    for (std::size_t i = 0; i < 2 * n_; ++i) {
      const double v = y[i * L_ + l];
      if (!std::isfinite(v) || (i >= n_ && v < -1e-6)) return false;
    }
    return true;
  }

  void track_best_and_damping(std::size_t l) {
    const auto& hist = reports_[l].result.objective_history;
    if (hist.back() < best_j_[l]) {
      best_j_[l] = hist.back();
      copy_lane(e1_, best_e1_, l);
      copy_lane(e2_, best_e2_, l);
    }
    // Stabilization: a fixed-point step that *raised* J signals the
    // iteration is orbiting rather than contracting — damp harder. The
    // damping only ever increases, so the map eventually contracts and
    // the sup-norm test fires.
    if (hist.size() >= 2 && hist.back() > hist[hist.size() - 2]) {
      relax_[l] = 0.5 * (1.0 + relax_[l]);
      streak_[l] = 0;
    } else if (++streak_[l] >= 10 && relax_[l] > opt_.relaxation) {
      // Sustained descent: cautiously undo some damping so the
      // iteration does not freeze at a heavily-damped crawl.
      relax_[l] = std::max(opt_.relaxation, 1.0 - 1.5 * (1.0 - relax_[l]));
      streak_[l] = 0;
    }
  }

  // Each active lane's control update from the knot contractions, and
  // its sup-norm. FBSM step (4): the stationary controls (18), projected
  // onto the box (19) and relaxed toward the iterate. PG: the gradient
  // ∇J(ε1)(t) = ∂H/∂ε1 = 2 c1 ε1 ΣS² − Σψ_i S_i (symmetrically for ε2)
  // and the stationarity ||ε − proj(ε − ∇J)||_∞.
  void update_controls() {
    std::fill(update_.begin(), update_.end(), 0.0);
    for (std::size_t k = 0; k < m_; ++k) {
      const double* p = products_.data() + 4 * k * L_;
      for (std::size_t l = 0; l < L_; ++l) {
        if (!active_[l]) continue;
        const SweepLane& lane = lanes_[l];
        const std::size_t i = k * L_ + l;
        const double ek1 = e1_[i];
        const double ek2 = e2_[i];
        double next1 = 0.0;
        double next2 = 0.0;
        if (pg_) {
          g1_[i] = 2.0 * lane.cost.c1 * ek1 * p[L_ + l] - p[l];
          g2_[i] = 2.0 * lane.cost.c2 * ek2 * p[3 * L_ + l] - p[2 * L_ + l];
          next1 = util::clamp(ek1 - g1_[i], 0.0, lane.epsilon1_max);
          next2 = util::clamp(ek2 - g2_[i], 0.0, lane.epsilon2_max);
        } else {
          const StationaryControls stat = stationary_controls(
              KnotProducts{p[l], p[L_ + l], p[2 * L_ + l], p[3 * L_ + l]},
              lane.cost);
          if (!std::isfinite(stat.epsilon1) ||
              !std::isfinite(stat.epsilon2)) {
            fail(l, kNonFiniteStationary);
            continue;
          }
          const double r = relax_[l];
          next1 = r * ek1 + (1.0 - r) * util::clamp(stat.epsilon1, 0.0,
                                                    lane.epsilon1_max);
          next2 = r * ek2 + (1.0 - r) * util::clamp(stat.epsilon2, 0.0,
                                                    lane.epsilon2_max);
          e1_[i] = next1;
          e2_[i] = next2;
        }
        update_[l] = std::max(update_[l], std::abs(next1 - ek1));
        update_[l] = std::max(update_[l], std::abs(next2 - ek2));
      }
    }
  }

  bool settled(std::size_t l) const {
    const std::vector<double>& history = reports_[l].result.objective_history;
    if (pg_) {
      // Stationary, or diminishing returns on the monotone J sequence.
      return update_[l] < opt_.gradient_tolerance ||
             (history.size() >= opt_.j_window &&
              history[history.size() - opt_.j_window] - history.back() <=
                  opt_.j_tolerance * std::max(std::abs(history.back()), 1.0));
    }
    // Primary test: the controls stopped moving. Secondary test: J has
    // plateaued (its range over the last j_window iterations is tiny) —
    // this covers the one-knot bang-bang dither that keeps the sup-norm
    // test alive forever without changing the objective.
    if (update_[l] < opt_.tolerance) return true;
    if (history.size() < opt_.j_window) return false;
    double j_lo = history.back();
    double j_hi = history.back();
    for (std::size_t w = 0; w < opt_.j_window; ++w) {
      const double j = history[history.size() - 1 - w];
      j_lo = std::min(j_lo, j);
      j_hi = std::max(j_hi, j);
    }
    return (j_hi - j_lo) <= opt_.j_tolerance * std::max(std::abs(j_hi), 1.0);
  }

  // Lockstep Armijo backtracking on the projected step: searching lanes
  // try their own step size; lanes that accepted, retired or failed ride
  // along under their current controls (per-lane arithmetic is
  // independent, so their ignored trial results cost nothing but the
  // occupied lane).
  void line_search() {
    std::copy(active_.begin(), active_.end(), searching_.begin());
    std::size_t num_searching = num_active_;
    for (std::size_t bt = 0;
         bt <= opt_.gradient_max_backtracks && num_searching > 0; ++bt) {
      for (std::size_t l = 0; l < L_; ++l) {
        if (!searching_[l]) {
          copy_lane(e1_, t1_, l);
          copy_lane(e2_, t2_, l);
          continue;
        }
        const SweepLane& lane = lanes_[l];
        const double step = step_[l];
        double dm = 0.0;
        for (std::size_t k = 0; k < m_; ++k) {
          const std::size_t i = k * L_ + l;
          t1_[i] = util::clamp(e1_[i] - step * g1_[i], 0.0, lane.epsilon1_max);
          t2_[i] = util::clamp(e2_[i] - step * g2_[i], 0.0, lane.epsilon2_max);
          dm += g1_[i] * (e1_[i] - t1_[i]) + g2_[i] * (e2_[i] - t2_[i]);
        }
        decrease_[l] = dm;
      }
      layout_.forward(t1_.data(), t2_.data(), Pass::kTrial, running_.data(),
                      terminal_.data());
      for (std::size_t l = 0; l < L_; ++l) {
        if (!searching_[l]) continue;
        const double trial_j = terminal_[l] + running_[l];
        if (!lane_valid(Pass::kTrial, l)) {
          fail(l, kInvalidForward);
        } else if (trial_j <=
                   objective_[l] - opt_.gradient_armijo * decrease_[l]) {
          copy_lane(t1_, e1_, l);
          copy_lane(t2_, e2_, l);
          objective_[l] = trial_j;
          step_[l] *= 2.0;  // optimistic growth for the next iteration
          control_metrics().pg_accepts.add();
        } else {
          step_[l] *= 0.5;
          control_metrics().pg_backtracks.add();
          continue;
        }
        searching_[l] = 0;
        --num_searching;
      }
    }
    bool exhausted = false;
    for (std::size_t l = 0; l < L_; ++l) {
      if (searching_[l]) {
        // Line search exhausted: numerically stationary.
        converge(l);
        exhausted = true;
      }
    }
    if (num_active_ == 0) return;
    // Accept by swap: in the last round every lane integrated its current
    // controls — the accepted ones included — so the trial pass is each
    // lane's new state. A lane that exhausted its search integrated a
    // rejected step there instead, and retired lanes keep reporting the
    // costate of their state, so then the state is recomputed.
    if (exhausted) {
      forward_state();
    } else {
      layout_.swap_trial();
    }
  }

  // The final pass under each lane's reported controls: state and cost,
  // and for FBSM a fresh costate (PG keeps its last iteration's). When
  // every lane failed there is nothing to report.
  void finish(const std::vector<double>& e1, const std::vector<double>& e2) {
    if (std::all_of(reports_.begin(), reports_.end(),
                    [](const BatchSolveReport& rep) { return rep.failed; })) {
      return;
    }
    layout_.forward(e1.data(), e2.data(), Pass::kState, running_.data(),
                    terminal_.data());
    if (!pg_) layout_.backward(e1.data(), e2.data());
    for (std::size_t l = 0; l < L_; ++l) {
      SweepResult& r = reports_[l].result;
      r.epsilon1.resize(m_);
      r.epsilon2.resize(m_);
      for (std::size_t k = 0; k < m_; ++k) {
        r.epsilon1[k] = e1[k * L_ + l];
        r.epsilon2[k] = e2[k * L_ + l];
      }
      r.control = std::make_shared<core::PiecewiseLinearControl>(
          grid_, r.epsilon1, r.epsilon2);
      layout_.extract(l, r.state, r.costate);
      r.cost.running = running_[l];
      r.cost.terminal = terminal_[l];
    }
  }

  void log_outcome() const {
    const auto unconverged = std::count_if(
        reports_.begin(), reports_.end(), [](const BatchSolveReport& rep) {
          return !rep.failed && !rep.result.converged &&
                 !rep.result.interrupted;
        });
    if (unconverged > 0) {
      util::log_warn() << who_ << ": " << unconverged << " of " << L_
                       << " problem(s) not converged after "
                       << opt_.max_iterations << " iterations";
    }
  }

  // Cooperative preemption, polled at the top of iteration `iter`. Every
  // variable still holds its end-of-(iter−1) value, so the checkpoint is
  // exactly the one a periodic save at the end of iter−1 would have
  // written. It is skipped when no new iteration completed: a resumed
  // run's file already covers this state, and a fresh run has no passes.
  bool yield(std::size_t iter, std::size_t first_iter) {
    if (!opt_.keep_going || opt_.keep_going()) return false;
    if (checkpointing_ && iter > first_iter) save_checkpoint(iter - 1);
    for (std::size_t l = 0; l < L_; ++l) {
      if (active_[l]) reports_[l].result.interrupted = true;
    }
    util::log_info() << who_ << ": yielded after " << iter - 1
                     << " iterations";
    return true;
  }

  // Snapshot of the iteration state after `completed` iterations; the
  // same fields whether written on the periodic cadence or on a
  // cooperative yield, so a resumed run cannot tell the two apart.
  void save_checkpoint(std::size_t completed) const {
    SweepCheckpoint cp;
    cp.algorithm = static_cast<std::uint32_t>(opt_.algorithm);
    cp.tf = tf_;
    cp.c1 = lanes_[0].cost.c1;
    cp.c2 = lanes_[0].cost.c2;
    cp.terminal_weight = lanes_[0].cost.terminal_weight;
    cp.grid = grid_;
    cp.iteration = completed;
    cp.epsilon1 = e1_;
    cp.epsilon2 = e2_;
    if (pg_) {
      cp.gradient_step = step_[0];
      cp.best_j = objective_[0];  // the PG sequence is monotone
      cp.best_epsilon1 = e1_;
      cp.best_epsilon2 = e2_;
    } else {
      cp.relaxation = relax_[0];
      cp.descent_streak = streak_[0];
      cp.best_j = best_j_[0];
      cp.best_epsilon1 = best_e1_;
      cp.best_epsilon2 = best_e2_;
    }
    cp.objective_history = reports_[0].result.objective_history;
    layout_.extract(0, cp.state, cp.costate);
    save_sweep_checkpoint(cp, opt_.checkpoint_path);
  }

  // Warm restart: an iteration is a deterministic map of (ε, best ε and
  // J, relaxation and descent streak or step size, objective history),
  // so restoring them continues the uninterrupted iterate sequence
  // exactly. The configuration must match bitwise, or the sequence would
  // silently diverge; a file written for another optimization is ignored.
  // Returns the first iteration to run.
  std::size_t resume() {
    if (!checkpointing_ || !opt_.resume ||
        !std::filesystem::exists(opt_.checkpoint_path)) {
      return 1;
    }
    SweepCheckpoint cp = load_sweep_checkpoint(opt_.checkpoint_path);
    const CostParams& cost = lanes_[0].cost;
    const double want[] = {tf_, cost.c1, cost.c2, cost.terminal_weight};
    const double got[] = {cp.tf, cp.c1, cp.c2, cp.terminal_weight};
    if (cp.algorithm != static_cast<std::uint32_t>(opt_.algorithm) ||
        std::memcmp(want, got, sizeof(want)) != 0 || cp.grid.size() != m_ ||
        std::memcmp(cp.grid.data(), grid_.data(), m_ * sizeof(double)) != 0) {
      util::log_warn() << "sweep checkpoint " << opt_.checkpoint_path
                       << " was written for a different optimization "
                          "(algorithm, horizon, cost weights, or grid); "
                          "starting fresh";
      return 1;
    }
    e1_ = std::move(cp.epsilon1);
    e2_ = std::move(cp.epsilon2);
    if (pg_) {
      step_[0] = cp.gradient_step;
    } else {
      best_e1_ = std::move(cp.best_epsilon1);
      best_e2_ = std::move(cp.best_epsilon2);
      best_j_[0] = cp.best_j;
      relax_[0] = cp.relaxation;
      streak_[0] = static_cast<std::size_t>(cp.descent_streak);
    }
    SweepResult& r = reports_[0].result;
    r.objective_history = std::move(cp.objective_history);
    r.iterations = static_cast<std::size_t>(cp.iteration);
    return r.iterations + 1;
  }

  void copy_lane(const std::vector<double>& from, std::vector<double>& to,
                 std::size_t l) const {
    for (std::size_t k = 0; k < m_; ++k) to[k * L_ + l] = from[k * L_ + l];
  }

  void retire(std::size_t l) {
    if (active_[l]) {
      active_[l] = 0;
      --num_active_;
    }
  }

  void converge(std::size_t l) {
    reports_[l].result.converged = true;
    retire(l);
  }

  void fail(std::size_t l, const char* message) {
    reports_[l].failed = true;
    reports_[l].error = std::string(who_) + ": " + message;
    retire(l);
  }

  SweepLayout& layout_;
  const std::vector<double>& grid_;
  double tf_;
  const SweepOptions& opt_;
  std::span<const SweepLane> lanes_;
  const char* who_;
  std::span<BatchSolveReport> reports_;
  bool pg_;
  std::size_t m_, L_, n_;
  bool checkpointing_;

  // Knot-major m·L arrays.
  std::vector<double> e1_, e2_, g1_, g2_, t1_, t2_, best_e1_, best_e2_;
  std::vector<double> products_;  // 4·m·L
  // Per lane.
  std::vector<double> running_, terminal_, objective_, update_, decrease_,
      step_, best_j_, relax_;
  std::vector<std::size_t> streak_;
  std::vector<char> active_, searching_;
  std::size_t num_active_;
};

}  // namespace

void validate_sweep(const SweepOptions& options, double tf, const char* who) {
  const std::string prefix = std::string(who) + ": ";
  util::require(tf > 0.0, prefix + "tf must be positive");
  util::require(options.grid_points >= 3,
                prefix + "need at least 3 grid points");
  util::require(options.relaxation >= 0.0 && options.relaxation < 1.0,
                prefix + "relaxation must be in [0, 1)");
  util::require(options.substeps >= 1, prefix + "substeps must be >= 1");
  util::require(options.j_window >= 1, prefix + "j_window must be >= 1");
}

void run_sweep(SweepLayout& layout, const std::vector<double>& grid,
               double tf, const SweepOptions& options,
               std::span<const SweepLane> lanes, const char* who,
               std::span<BatchSolveReport> reports) {
  util::require(!lanes.empty() && reports.size() == lanes.size(),
                "run_sweep: need one report per lane");
  util::require(options.checkpoint_path.empty() || lanes.size() == 1,
                "run_sweep: a sweep checkpoint holds one problem");
  SweepDriver(layout, grid, tf, options, lanes, who, reports).run();
}

}  // namespace rumor::control
