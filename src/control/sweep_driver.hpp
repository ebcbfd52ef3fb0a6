// The one implementation of the FBSM and projected-gradient iterations,
// shared by solve_optimal_control (one problem, per-solve SIMD over the
// groups) and solve_optimal_control_batch (one problem per SIMD lane).
//
// The driver owns everything about the iteration: relaxation with
// adaptive damping and best-iterate tracking, the sup-norm and J-window
// tests, the gradient and its stationarity test, the lockstep Armijo
// search with one step size per lane, per-lane retirement and failure,
// the fbsm.* / pg.* metrics and iteration spans, keep_going, SWEEPCKP
// save/resume, and the final pass. Where the data lives and how a pass
// is computed is the SweepLayout's business: a layout holds L ≥ 1
// problems ("lanes") and runs each pass for all of them at once.
//
// Controls are knot-major: knot k of lane l is e[k·L + l], so a knot's
// lane block is contiguous; for L = 1 this is the plain knot vector.
#pragma once

#include <span>
#include <vector>

#include "control/batch_sweep.hpp"

namespace rumor::control {

/// The two forward-pass buffers of a layout: the state the iteration
/// works from, and the line search's candidate.
enum class Pass { kState, kTrial };

class SweepLayout {
 public:
  /// Forward pass under controls (e1, e2) into `pass`, and each lane's
  /// cost along it: running[l] (the integral) and terminal[l].
  virtual void forward(const double* e1, const double* e2, Pass pass,
                       double* running, double* terminal) = 0;
  /// Number of groups n; a state or costate sample has 2n components.
  virtual std::size_t num_groups() const = 0;
  /// The last sample of `pass`: component i of lane l at [i·L + l].
  virtual const double* last_sample(Pass pass) const = 0;
  /// Backward costate pass along the state buffer under (e1, e2).
  virtual void backward(const double* e1, const double* e2) = 0;
  /// Every grid knot's state/costate contractions, from the state and
  /// costate buffers: out[(4k + c)·L + l] for c = 0..3 holding ΣψS,
  /// ΣS², ΣφI, ΣI² of lane l at knot k.
  virtual void knot_products(double* out) = 0;
  /// Exchange the state and trial buffers.
  virtual void swap_trial() = 0;
  /// Lane l's state and costate, in forward time (the costate is empty
  /// before the first backward pass).
  virtual void extract(std::size_t lane, ode::Trajectory& state,
                       ode::Trajectory& costate) const = 0;
};

/// What varies per lane: cost weights, control box, initial guess.
struct SweepLane {
  CostParams cost;
  double epsilon1_max = 0.0;
  double epsilon2_max = 0.0;
  double initial_guess = 0.0;
};

/// The option checks both entry points share (horizon, grid, relaxation,
/// substeps, J window); the message names `who`.
void validate_sweep(const SweepOptions& options, double tf, const char* who);

/// Run options.algorithm on every lane of `layout` over `grid` (knots on
/// [0, tf]) and fill reports[l]. A lane whose forward pass turns invalid
/// or whose stationary control is non-finite is failed with a message
/// prefixed by `who`; the others are unaffected. checkpoint_path and
/// keep_going are honoured as SweepOptions documents; a checkpoint holds
/// one problem, so checkpointing needs exactly one lane.
void run_sweep(SweepLayout& layout, const std::vector<double>& grid,
               double tf, const SweepOptions& options,
               std::span<const SweepLane> lanes, const char* who,
               std::span<BatchSolveReport> reports);

}  // namespace rumor::control
