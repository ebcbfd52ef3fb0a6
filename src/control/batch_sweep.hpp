// Lane-per-problem batched optimal-control solves: run B independent
// FBSM or projected-gradient sweeps in lockstep over one shared time
// grid, one SIMD lane per problem (ode/batch.hpp has the layout,
// kern.hpp the batched-kernel determinism policy).
//
// Every problem in a batch shares the NetworkProfile and the sweep
// geometry (tf, grid_points, substeps — the SweepOptions fields that
// fix the time grid); everything else varies per lane: ModelParams,
// cost weights, initial state, and optionally the control box and
// initial guess. The iteration is the sweep driver solve_optimal_control
// runs too (sweep_driver.hpp), over lane-interleaved data, so lane l
// reproduces the sequential solve of problem l bit for bit under
// RUMOR_KERNEL=scalar (and to ULP tolerance under the SIMD backends,
// whose sequential reductions reassociate where the batched ones do not).
//
// Divergence between lanes is handled with an active mask: a lane that
// converges, exhausts its line search, or produces an invalid forward
// pass retires — its controls freeze and its bookkeeping stops — while
// the batch keeps stepping in lockstep until every lane is done.
// Retired lanes ride along in the SIMD registers at zero marginal
// cost; their frozen-control passes are ignored.
//
// Differences from the sequential entry point, by design:
//  * checkpoint_path / resume / keep_going are ignored — a SWEEPCKP
//    file holds one problem; a batch is not a preemptible service job.
//  * An invalid forward pass fails only that lane (failed + error in
//    its report) instead of throwing out of the whole solve.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "control/fbsweep.hpp"
#include "core/profile.hpp"

namespace rumor::control {

/// One lane of a batched solve. The control box and initial guess
/// default to the shared SweepOptions values; a non-negative override
/// here replaces them for this lane (budget sweeps vary exactly these).
struct BatchProblem {
  core::ModelParams params;
  CostParams cost;
  ode::State y0;
  double epsilon1_max = -1.0;   ///< <0 → options.epsilon1_max
  double epsilon2_max = -1.0;   ///< <0 → options.epsilon2_max
  double initial_guess = -1.0;  ///< <0 → options.initial_guess
};

/// Per-lane outcome. `failed` mirrors the sequential solver's
/// InternalError (invalid forward state / non-finite stationary
/// control): the lane's result fields are unspecified and `error`
/// holds the reason. Otherwise `result` is exactly what
/// solve_optimal_control would have returned for this problem.
struct BatchSolveReport {
  SweepResult result;
  bool failed = false;
  std::string error;
};

/// Solve all `problems` over [0, tf]: chunks of `lanes` problems run
/// lane-parallel in SIMD, chunks run thread-parallel. `lanes == 0`
/// picks kern::preferred_batch_lanes(). Supports both SweepAlgorithm
/// values; see the header comment for the per-lane equivalence and
/// retirement semantics.
std::vector<BatchSolveReport> solve_optimal_control_batch(
    const core::NetworkProfile& profile,
    std::span<const BatchProblem> problems, double tf,
    const SweepOptions& options = {}, std::size_t lanes = 0);

}  // namespace rumor::control
