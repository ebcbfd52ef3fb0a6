#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {

double percentile_sorted(std::span<const double> sorted, double p) {
  if (sorted.empty()) return std::numeric_limits<double>::quiet_NaN();
  p = std::clamp(p, 0.0, 1.0);
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  if (frac == 0.0) return sorted[lo];
  if (std::isinf(sorted[lo]) || std::isinf(sorted[hi])) {
    return std::numeric_limits<double>::infinity();
  }
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

GuardVerdict percentile_guard(std::span<const double> sorted, double p) {
  GuardVerdict verdict;
  const std::size_t n = sorted.size();
  if (n == 0) {
    verdict.flagged = true;
    return verdict;
  }
  const double nd = static_cast<double>(n);
  verdict.beyond = nd * (1.0 - p);
  const double rank = p * (nd - 1.0);
  const auto window = static_cast<std::size_t>(
      std::ceil(2.0 * std::sqrt(nd * p * (1.0 - p))));
  const auto below = static_cast<std::size_t>(std::floor(rank));
  const auto above = static_cast<std::size_t>(std::ceil(rank));
  verdict.lo = below > window ? below - window : 0;
  verdict.hi = std::min(n - 1, above + std::max<std::size_t>(window, 1));
  const double at = percentile_sorted(sorted, p);
  const double spread = sorted[verdict.hi] - sorted[verdict.lo];
  verdict.jump = at > 0.0 ? spread / at
                          : std::numeric_limits<double>::infinity();
  verdict.flagged = !std::isfinite(verdict.jump) ||
                    verdict.jump > kGuardMaxJump ||
                    verdict.beyond < kGuardMinBeyond;
  return verdict;
}

void OpTally::add_failed() {
  samples_.push_back(std::numeric_limits<double>::infinity());
  ++failed_;
}

std::vector<double> OpTally::sorted_samples() const {
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

}  // namespace perfbench
