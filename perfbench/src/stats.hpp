// Latency statistics for the benchmark: interpolated percentiles, the
// percentile guard, and failure accounting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace perfbench {

/// Linear-interpolated percentile of ascending `sorted` samples at
/// p ∈ [0, 1]: rank p·(n−1), interpolated between the two nearest
/// order statistics. An infinite neighbour yields infinity.
double percentile_sorted(std::span<const double> sorted, double p);

/// A percentile is trustworthy only where the quantile function is
/// flat: if the order statistics two rank standard errors either side
/// of its rank differ by more than this share of its value, a rerun can
/// land on either side of the jump.
inline constexpr double kGuardMaxJump = 0.20;
/// Fewer than this many samples beyond a percentile leave its tail
/// unsampled.
inline constexpr double kGuardMinBeyond = 10.0;

struct GuardVerdict {
  bool flagged = false;
  double jump = 0.0;    ///< (x[hi] − x[lo]) / x[rank]
  std::size_t lo = 0;   ///< neighbouring ranks compared
  std::size_t hi = 0;
  double beyond = 0.0;  ///< samples above the percentile
};

/// Judge the percentile p of ascending `sorted` samples. The rank window
/// is ±2·sqrt(n·p·(1−p)), the binomial standard error of the rank.
GuardVerdict percentile_guard(std::span<const double> sorted, double p);

/// Op accounting for one run. A failed op enters the latency samples as
/// +infinity, so it counts as missing every latency limit.
class OpTally {
 public:
  void add_ok(double latency_ms) { samples_.push_back(latency_ms); }
  void add_failed();
  std::uint64_t attempted() const { return samples_.size(); }
  std::uint64_t failed() const { return failed_; }
  /// Ascending latency samples, failures last as +infinity.
  std::vector<double> sorted_samples() const;

 private:
  std::vector<double> samples_;
  std::uint64_t failed_ = 0;
};

}  // namespace perfbench
