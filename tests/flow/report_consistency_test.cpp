// Internal-consistency properties of FeasibilityReport across random
// instances: the fields are redundant in ways the definitions force, so
// any disagreement is a bug.
#include <gtest/gtest.h>

#include "flow/feasibility.hpp"
#include "graph/generators.hpp"

namespace lgg::flow {
namespace {

TEST(ReportConsistency, CrossFieldInvariantsOnRandomInstances) {
  int feasible_seen = 0, infeasible_seen = 0, unsaturated_seen = 0;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(seed);
    const auto n = static_cast<NodeId>(rng.uniform_int(3, 12));
    const graph::Multigraph g = graph::make_random_multigraph(
        n, static_cast<EdgeId>(rng.uniform_int(n, 4 * n)), seed * 3 + 1);
    const std::vector<RatedNode> sources = {
        {0, rng.uniform_int(1, 4)}};
    const std::vector<RatedNode> sinks = {
        {n - 1, rng.uniform_int(1, 4)}};
    const auto r = analyze_feasibility(g, sources, sinks);

    // Definitional redundancies.
    EXPECT_EQ(r.feasible, r.max_flow_at_rates == r.arrival_rate) << seed;
    EXPECT_LE(r.max_flow_at_rates, r.arrival_rate) << seed;
    EXPECT_LE(r.max_flow_at_rates, r.fstar) << seed;
    EXPECT_EQ(r.unsaturated, r.epsilon > 0.0) << seed;
    if (r.unsaturated) EXPECT_TRUE(r.feasible) << seed;
    if (!r.feasible) EXPECT_DOUBLE_EQ(r.epsilon, 0.0) << seed;
    // ε is bounded by the total headroom f*/rate − 1.
    if (r.feasible && r.arrival_rate > 0) {
      const double headroom =
          static_cast<double>(r.fstar) /
              static_cast<double>(r.arrival_rate) -
          1.0;
      EXPECT_LE(r.epsilon, headroom + 1e-9) << seed;
    }
    // Cut-placement coherence.
    if (r.location.unique_at_source) {
      EXPECT_TRUE(r.location.at_source) << seed;
      EXPECT_FALSE(r.location.internal) << seed;
    }
    if (r.feasible) {
      // Sources saturated => residual closure of s* is {s*}.
      EXPECT_TRUE(r.location.at_source) << seed;
    }
    feasible_seen += r.feasible ? 1 : 0;
    infeasible_seen += r.feasible ? 0 : 1;
    unsaturated_seen += r.unsaturated ? 1 : 0;
  }
  // The random family must exercise all three regimes.
  EXPECT_GT(feasible_seen, 0);
  EXPECT_GT(infeasible_seen, 0);
  EXPECT_GT(unsaturated_seen, 0);
}

TEST(ReportConsistency, MaxArrivalScalingAgreesWithEpsilon) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const graph::Multigraph g = graph::make_random_multigraph(8, 24, seed);
    const std::vector<RatedNode> sources = {{0, 2}};
    const std::vector<RatedNode> sinks = {{7, 3}};
    const auto r = analyze_feasibility(g, sources, sinks);
    const double lambda = max_arrival_scaling(g, sources, sinks);
    if (r.feasible) {
      // Same breakpoint, dyadic on the 1/kEpsilonDenom grid: exact.
      EXPECT_EQ(lambda, 1.0 + r.epsilon) << seed;
    } else {
      EXPECT_LT(lambda, 1.0) << seed;
    }
  }
}

}  // namespace
}  // namespace lgg::flow
