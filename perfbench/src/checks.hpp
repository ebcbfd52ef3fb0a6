// Output checks that need no per-seed reference values, so they hold on
// any workload seed. Each returns an empty string when the output is
// right and a one-line reason when it is not.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

/// Relative tolerance between the solver's J and an independent replay
/// of its schedule (both integrate the same RK4 grid; the replay takes
/// the generic stepper path, so agreement is to rounding, not bitwise).
inline constexpr double kPlanCostTolerance = 1e-8;

/// A returned schedule, re-run through core::run_simulation and scored
/// by control::evaluate_cost (`replay_j`), must reproduce the solver's
/// own J, and must not cost more than doing nothing (J with ε ≡ 0,
/// which lies in every admissible box).
std::string check_plan_cost(double solver_j, double replay_j,
                            double zero_control_j);

/// A batch lane that reports `failed` is a wrong answer, never noise.
std::string check_lane_failed(bool failed, const std::string& error);

/// The compressed copy of a graph keeps the packed node order, and the
/// agent engine is bit-identical across the two formats, so a rerun of
/// the same spec must end in the same per-node state.
std::string check_twin_crc(std::uint32_t packed_crc,
                           std::uint32_t compressed_crc);

/// Every node is in exactly one compartment at the end of a job.
std::string check_census(double susceptible, double infected,
                         double recovered, double nodes);

/// Replaying one event log must reproduce the reference decision trace
/// and final agent state bit for bit.
std::string check_replay(std::uint32_t reference_decision_crc,
                         std::uint32_t reference_state_crc,
                         std::uint32_t decision_crc, std::uint32_t state_crc);

/// An end-to-end metric that is not a finite number (a latency
/// percentile reaching the +infinity of failed ops, or taken over no
/// samples) cannot be reported; the run is not correct.
std::string check_finite_metric(const char* name, double value);

}  // namespace perfbench
