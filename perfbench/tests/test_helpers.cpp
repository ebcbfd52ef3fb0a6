// Unit tests of the benchmark's own helpers: percentile interpolation,
// the percentile guard, failure accounting, and the output checks (each
// must reject a wrong value).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "checks.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

TEST(Percentile, InterpolatesBetweenOrderStatistics) {
  const std::vector<double> x{10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(percentile_sorted(x, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(x, 0.5), 30.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(x, 0.9), 46.0);  // rank 3.6
  EXPECT_DOUBLE_EQ(percentile_sorted(x, 0.25), 20.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(x, 1.0), 50.0);
  const std::vector<double> even{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(percentile_sorted(even, 0.5), 2.5);
}

TEST(Percentile, EdgeCases) {
  EXPECT_TRUE(std::isnan(percentile_sorted(std::vector<double>{}, 0.5)));
  EXPECT_DOUBLE_EQ(percentile_sorted(std::vector<double>{7.0}, 0.9), 7.0);
  const std::vector<double> tail{1, 2, INFINITY};
  EXPECT_DOUBLE_EQ(percentile_sorted(tail, 0.5), 2.0);
  EXPECT_TRUE(std::isinf(percentile_sorted(tail, 0.9)));
}

TEST(PercentileGuard, PassesOnAContinuousDistribution) {
  std::vector<double> x;
  for (int i = 0; i < 1000; ++i) x.push_back(100.0 + 0.1 * i);
  EXPECT_FALSE(percentile_guard(x, 0.5).flagged);
  EXPECT_FALSE(percentile_guard(x, 0.9).flagged);
  EXPECT_LT(percentile_guard(x, 0.9).jump, 0.05);
}

TEST(PercentileGuard, FlagsAPercentileInTheGapBetweenKinds) {
  // 90% fast ops near 10 ms, 10% slow ones near 50 ms: the 90th
  // percentile sits where the quantile function jumps between them.
  std::vector<double> x;
  for (int i = 0; i < 900; ++i) x.push_back(10.0 + 0.001 * i);
  for (int i = 0; i < 100; ++i) x.push_back(50.0 + 0.01 * i);
  const GuardVerdict p90 = percentile_guard(x, 0.9);
  EXPECT_TRUE(p90.flagged);
  EXPECT_GT(p90.jump, kGuardMaxJump);
  EXPECT_FALSE(percentile_guard(x, 0.5).flagged);
}

TEST(PercentileGuard, FlagsAnUndersampledTail) {
  std::vector<double> x;
  for (int i = 0; i < 50; ++i) x.push_back(100.0 + 0.01 * i);
  const GuardVerdict p90 = percentile_guard(x, 0.9);
  EXPECT_LT(p90.beyond, kGuardMinBeyond);
  EXPECT_TRUE(p90.flagged);
  EXPECT_FALSE(percentile_guard(x, 0.5).flagged);
  EXPECT_TRUE(percentile_guard(std::vector<double>{}, 0.5).flagged);
}

TEST(OpTally, CountsFailuresAsAttemptedAndSortsThemLast) {
  OpTally tally;
  tally.add_ok(5.0);
  tally.add_failed();
  tally.add_ok(3.0);
  EXPECT_EQ(tally.attempted(), 3u);
  EXPECT_EQ(tally.failed(), 1u);
  const auto sorted = tally.sorted_samples();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_DOUBLE_EQ(sorted[0], 3.0);
  EXPECT_DOUBLE_EQ(sorted[1], 5.0);
  EXPECT_TRUE(std::isinf(sorted[2]));
}

TEST(OpTally, FailuresMissEveryLatencyLimit) {
  OpTally tally;
  for (int i = 0; i < 85; ++i) tally.add_ok(10.0 + i);
  for (int i = 0; i < 15; ++i) tally.add_failed();
  const auto sorted = tally.sorted_samples();
  EXPECT_TRUE(std::isfinite(percentile_sorted(sorted, 0.5)));
  EXPECT_TRUE(std::isinf(percentile_sorted(sorted, 0.9)));
  EXPECT_TRUE(percentile_guard(sorted, 0.9).flagged);
  // ...and such a percentile fails the run instead of printing as a
  // best-possible -1.
  EXPECT_EQ(check_finite_metric("latency_p50_ms", percentile_sorted(sorted, 0.5)), "");
  EXPECT_NE(check_finite_metric("latency_p90_ms", percentile_sorted(sorted, 0.9)), "");
}

TEST(Checks, FiniteMetric) {
  EXPECT_EQ(check_finite_metric("ops_per_s", 12.5), "");
  EXPECT_NE(check_finite_metric("latency_p50_ms", INFINITY), "");
  EXPECT_NE(check_finite_metric("latency_p50_ms",
                                percentile_sorted(std::vector<double>{}, 0.5)),
            "");
}

TEST(Checks, PlanCostAcceptsAReplayThatMatches) {
  EXPECT_EQ(check_plan_cost(4.0, 4.0 * (1 + 1e-12), 9.0), "");
  EXPECT_EQ(check_plan_cost(9.0, 9.0, 9.0), "");  // ε ≡ 0 is optimal
}

TEST(Checks, PlanCostRejectsWrongValues) {
  EXPECT_NE(check_plan_cost(4.0, 4.01, 9.0), "");   // replay disagrees
  EXPECT_NE(check_plan_cost(9.5, 9.5, 9.0), "");    // worse than no control
  EXPECT_NE(check_plan_cost(NAN, 4.0, 9.0), "");
  EXPECT_NE(check_plan_cost(4.0, 4.0, INFINITY), "");
}

TEST(Checks, LaneFailure) {
  EXPECT_EQ(check_lane_failed(false, ""), "");
  EXPECT_NE(check_lane_failed(true, "invalid forward state"), "");
}

TEST(Checks, TwinCrc) {
  EXPECT_EQ(check_twin_crc(0xdeadbeef, 0xdeadbeef), "");
  EXPECT_NE(check_twin_crc(0xdeadbeef, 0xdeadbeee), "");
}

TEST(Checks, Census) {
  EXPECT_EQ(check_census(60, 15, 25, 100), "");
  EXPECT_NE(check_census(60, 15, 24, 100), "");
  EXPECT_NE(check_census(61, 15, 25, 100), "");
  EXPECT_NE(check_census(-1, 16, 85, 100), "");
}

TEST(Checks, Replay) {
  EXPECT_EQ(check_replay(1, 2, 1, 2), "");
  EXPECT_NE(check_replay(1, 2, 3, 2), "");  // decision trace differs
  EXPECT_NE(check_replay(1, 2, 1, 4), "");  // end state differs
}

}  // namespace
}  // namespace perfbench
