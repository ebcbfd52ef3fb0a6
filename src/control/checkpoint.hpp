// On-disk warm-restart state for the forward–backward sweep and
// projected-gradient optimizers ("SWEEPCKP" containers), and for the
// MPC closed loop ("MPCLOOP" containers).
//
// A sweep checkpoint pins the optimization configuration (algorithm,
// horizon, cost weights, control grid) and carries the full iteration
// state: current and best-seen controls, the objective history (which
// drives the plateau/limit-cycle tests), the adaptive relaxation, and
// the latest state/costate trajectories. Restoring it reproduces the
// uninterrupted iteration sequence bit-for-bit, because the sweep
// itself is deterministic. The sweep driver (sweep_driver.cpp) starts
// fresh from a file whose configuration does not match (this is what
// lets solve_with_terminal_target's weight escalations share one
// checkpoint path); a corrupted file throws util::IoError.
#pragma once

#include <string>
#include <vector>

#include "control/fbsweep.hpp"
#include "ode/trajectory.hpp"

namespace rumor::control {

inline constexpr char kSweepKind[] = "SWEEPCKP";
inline constexpr char kMpcKind[] = "MPCLOOP";

struct SweepCheckpoint {
  // Configuration fingerprint.
  std::uint32_t algorithm = 0;  ///< static_cast of SweepAlgorithm
  double tf = 0.0;
  double c1 = 0.0;
  double c2 = 0.0;
  double terminal_weight = 0.0;
  std::vector<double> grid;

  // Iteration state.
  std::uint64_t iteration = 0;
  double relaxation = 0.0;          ///< FBSM adaptive damping
  std::uint64_t descent_streak = 0;  ///< FBSM damping bookkeeping
  double gradient_step = 0.0;        ///< projected-gradient step size
  double best_j = 0.0;
  std::vector<double> epsilon1, epsilon2;
  std::vector<double> best_epsilon1, best_epsilon2;
  std::vector<double> objective_history;

  // Latest forward/backward pass (informational; not needed to resume).
  ode::Trajectory state;
  ode::Trajectory costate;
};

void save_sweep_checkpoint(const SweepCheckpoint& checkpoint,
                           const std::string& path);
SweepCheckpoint load_sweep_checkpoint(const std::string& path);

}  // namespace rumor::control
