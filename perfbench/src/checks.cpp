#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

std::string format(const char* fmt, double a, double b, double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}

}  // namespace

std::string check_plan_cost(double solver_j, double replay_j,
                            double zero_control_j) {
  if (!std::isfinite(solver_j) || !std::isfinite(replay_j) ||
      !std::isfinite(zero_control_j)) {
    return format("plan: non-finite cost (solver %.17g, replay %.17g, "
                  "no control %.17g)",
                  solver_j, replay_j, zero_control_j);
  }
  const double scale = std::max({std::abs(solver_j), std::abs(replay_j),
                                 1e-300});
  if (std::abs(solver_j - replay_j) > kPlanCostTolerance * scale) {
    return format("plan: solver J %.17g but its schedule replays to %.17g",
                  solver_j, replay_j);
  }
  if (solver_j > zero_control_j * (1.0 + kPlanCostTolerance)) {
    return format("plan: optimized J %.17g exceeds J(eps=0) %.17g",
                  solver_j, zero_control_j);
  }
  return {};
}

std::string check_lane_failed(bool failed, const std::string& error) {
  return failed ? "plan: batch lane failed: " + error : std::string();
}

std::string check_twin_crc(std::uint32_t packed_crc,
                           std::uint32_t compressed_crc) {
  if (packed_crc == compressed_crc) return {};
  return format("simulate: GRAPHCSZ rerun state_crc %.0f differs from the "
                "packed twin's %.0f",
                compressed_crc, packed_crc);
}

std::string check_census(double susceptible, double infected,
                         double recovered, double nodes) {
  if (susceptible >= 0.0 && infected >= 0.0 && recovered >= 0.0 &&
      susceptible + infected + recovered == nodes) {
    return {};
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "simulate: S+I+R = %.0f+%.0f+%.0f is not N = %.0f",
                susceptible, infected, recovered, nodes);
  return buf;
}

std::string check_replay(std::uint32_t reference_decision_crc,
                         std::uint32_t reference_state_crc,
                         std::uint32_t decision_crc, std::uint32_t state_crc) {
  if (decision_crc == reference_decision_crc &&
      state_crc == reference_state_crc) {
    return {};
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "stream: replay gave decision_crc %u state_crc %u, "
                "reference %u / %u",
                decision_crc, state_crc, reference_decision_crc,
                reference_state_crc);
  return buf;
}

std::string check_finite_metric(const char* name, double value) {
  if (std::isfinite(value)) return {};
  return std::string(name) + " is not a finite number (" +
         (std::isnan(value) ? "no samples" : "failed ops reach it") + ")";
}

}  // namespace perfbench
