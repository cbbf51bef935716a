#include "core/bounds.hpp"

#include <gtest/gtest.h>

#include "core/scenarios.hpp"

namespace lgg::core {
namespace {

TEST(UnsaturatedBounds, FatPathConstants) {
  // fat_path(2, 3) with in = 1: n = 2, Δ = 3, f* = 3, ε = 2.
  const SdNetwork net = scenarios::fat_path(2, 3, 1, 3);
  const auto report = analyze(net);
  ASSERT_TRUE(report.unsaturated);
  const UnsaturatedBounds b = unsaturated_bounds(net, report);
  EXPECT_EQ(b.n, 2);
  EXPECT_EQ(b.delta, 3);
  EXPECT_EQ(b.fstar, 3);
  EXPECT_NEAR(b.epsilon, 2.0, 1e-9);
  EXPECT_DOUBLE_EQ(b.growth, 5.0 * 2 * 9);                 // 5 n Δ²
  EXPECT_NEAR(b.y, (5.0 * 2 * 3 / 2.0 + 3.0 * 2) * 9, 1e-6);
  EXPECT_NEAR(b.state, 2 * b.y * b.y + b.growth, 1e-6);
}

TEST(UnsaturatedBounds, RejectsSaturatedNetwork) {
  const SdNetwork net = scenarios::single_path(2, 1, 1);
  const auto report = analyze(net);
  ASSERT_FALSE(report.unsaturated);
  EXPECT_THROW(unsaturated_bounds(net, report), ContractViolation);
}

TEST(UnsaturatedBounds, SmallerEpsilonGivesLargerBound) {
  const SdNetwork loose = scenarios::fat_path(3, 4, 1, 4);
  const SdNetwork tight = scenarios::fat_path(3, 4, 3, 4);
  const auto loose_b = unsaturated_bounds(loose, analyze(loose));
  const auto tight_b = unsaturated_bounds(tight, analyze(tight));
  EXPECT_GT(loose_b.epsilon, tight_b.epsilon);
  EXPECT_LT(loose_b.state, tight_b.state);
}

TEST(GeneralizedBounds, ClassicalNetworkMatchesFormula) {
  // grid 2x3 with 2 sources (out 0) + 2 sinks (out 2): |S∪D| = 4.
  const SdNetwork net = scenarios::grid_flow(2, 3, 1, 2);
  const GeneralizedBounds b = generalized_bounds(net);
  EXPECT_EQ(b.n, 6);
  EXPECT_EQ(b.special, 4);
  EXPECT_EQ(b.out_max, 2);
  EXPECT_EQ(b.retention, 0);
  const double expect =
      2.0 * 4 * (0 + 2) * 2 + static_cast<double>(b.delta * b.delta) *
                                   (3.0 * 6 - 2.0 * 4);
  EXPECT_DOUBLE_EQ(b.growth, expect);
}

TEST(GeneralizedBounds, DriftThresholdFollowsProperty6Formula) {
  const SdNetwork net =
      scenarios::generalize(scenarios::grid_flow(2, 3, 1, 2), 3);
  const GeneralizedBounds b = generalized_bounds(net);
  const double eps = 0.5;
  const double expect =
      (static_cast<double>(b.delta * b.delta) * (3.0 * 6 - 2.0 * 4) +
       7.0 * 4 * 3 * b.delta) /
          eps +
      4.0 * (3 + 2) * 2;
  EXPECT_DOUBLE_EQ(b.drift_threshold(eps), expect);
  // Smaller margin raises the threshold.
  EXPECT_GT(b.drift_threshold(0.1), b.drift_threshold(1.0));
  EXPECT_THROW((void)b.drift_threshold(0.0), ContractViolation);
}

TEST(GeneralizedBounds, RetentionInflatesGrowthBound) {
  const SdNetwork base = scenarios::grid_flow(2, 3, 1, 2);
  const SdNetwork gen = scenarios::generalize(base, 8);
  const double g0 = generalized_bounds(base).growth;
  const double g8 = generalized_bounds(gen).growth;
  EXPECT_GT(g8, g0);
  EXPECT_EQ(generalized_bounds(gen).retention, 8);
}

}  // namespace
}  // namespace lgg::core
