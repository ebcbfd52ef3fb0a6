// Countermeasure schedules: ε1(t) (truth-spreading / immunization of
// susceptibles) and ε2(t) (blocking of infected users).
//
// The SIR model reads controls through this interface so that constant
// levels (Section III experiments), optimizer-produced piecewise-linear
// policies (Section IV), and state-feedback heuristics can be swapped
// without touching the dynamics.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace rumor::core {

/// Both countermeasure levels at one instant.
struct Epsilons {
  double epsilon1 = 0.0;
  double epsilon2 = 0.0;
};

/// Time-varying countermeasure pair. Implementations must be pure in t.
class ControlSchedule {
 public:
  virtual ~ControlSchedule() = default;

  /// Immunization rate ε1(t) applied to susceptible individuals.
  virtual double epsilon1(double t) const = 0;

  /// Blocking rate ε2(t) applied to infected individuals.
  virtual double epsilon2(double t) const = 0;

  /// Both levels at once. The RHS hot paths call this so tabulated
  /// schedules can share one segment lookup between the two controls.
  virtual Epsilons epsilons(double t) const {
    return {epsilon1(t), epsilon2(t)};
  }
};

/// Constant countermeasure levels (the Section III setting).
class ConstantControl final : public ControlSchedule {
 public:
  ConstantControl(double epsilon1, double epsilon2);
  double epsilon1(double) const override { return epsilon1_; }
  double epsilon2(double) const override { return epsilon2_; }
  Epsilons epsilons(double) const override { return {epsilon1_, epsilon2_}; }

 private:
  double epsilon1_;
  double epsilon2_;
};

/// Index of the first knot with grid[hi] > t, for t strictly inside the
/// range of `grid` (at least two knots), walking from `hint`. The hint is
/// only an accelerator: any value converges to the unique answer.
inline std::size_t walk_upper_knot(const std::vector<double>& grid, double t,
                                   std::size_t hint) {
  std::size_t hi = hint;
  if (hi < 1 || hi > grid.size() - 1) hi = 1;
  while (hi > 1 && grid[hi - 1] > t) --hi;
  while (hi + 1 < grid.size() && grid[hi] <= t) ++hi;
  return hi;
}

/// Controls tabulated on a time grid with linear interpolation between
/// knots and clamping outside the grid. This is the representation the
/// forward–backward sweep optimizer produces.
class PiecewiseLinearControl final : public ControlSchedule {
 public:
  /// `grid` strictly increasing; value vectors sized like the grid.
  PiecewiseLinearControl(std::vector<double> grid,
                         std::vector<double> epsilon1_values,
                         std::vector<double> epsilon2_values);

  double epsilon1(double t) const override;
  double epsilon2(double t) const override;
  /// One segment lookup serves both controls; the bracketing segment of
  /// the previous query is cached (a relaxed atomic hint, so concurrent
  /// readers stay race-free), making monotone query sequences — exactly
  /// what fixed-step integration produces — O(1) amortized instead of a
  /// binary search per call. Defined inline: the RHS hot paths call it
  /// through a devirtualized pointer (see SirNetworkModel::rhs).
  Epsilons epsilons(double t) const override {
    if (t <= grid_.front()) return {e1_.front(), e2_.front()};
    if (t >= grid_.back()) return {e1_.back(), e2_.back()};
    const std::size_t hi = upper_knot(t);
    const std::size_t lo = hi - 1;
    const double w = (t - grid_[lo]) / (grid_[hi] - grid_[lo]);
    return {(1.0 - w) * e1_[lo] + w * e1_[hi],
            (1.0 - w) * e2_[lo] + w * e2_[hi]};
  }

  const std::vector<double>& grid() const { return grid_; }
  const std::vector<double>& epsilon1_values() const { return e1_; }
  const std::vector<double>& epsilon2_values() const { return e2_; }

 private:
  /// walk_upper_knot from the cached hint. Any stale hint still converges
  /// to the unique answer, so a relaxed atomic is enough for concurrent
  /// readers and the result never depends on the hint.
  std::size_t upper_knot(double t) const {
    const std::size_t hi =
        walk_upper_knot(grid_, t, hint_.load(std::memory_order_relaxed));
    hint_.store(static_cast<std::uint32_t>(hi), std::memory_order_relaxed);
    return hi;
  }

  std::vector<double> grid_;
  std::vector<double> e1_;
  std::vector<double> e2_;
  mutable std::atomic<std::uint32_t> hint_{1};
};

/// Controls given as callables of t; used in tests and for hand-written
/// policies (e.g. bang-bang baselines).
class FunctionControl final : public ControlSchedule {
 public:
  using Fn = std::function<double(double)>;
  FunctionControl(Fn epsilon1, Fn epsilon2);
  double epsilon1(double t) const override { return e1_(t); }
  double epsilon2(double t) const override { return e2_(t); }

 private:
  Fn e1_;
  Fn e2_;
};

/// Convenience factory for shared constant controls.
std::shared_ptr<const ControlSchedule> make_constant_control(double epsilon1,
                                                             double epsilon2);

}  // namespace rumor::core
