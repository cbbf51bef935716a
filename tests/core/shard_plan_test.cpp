#include "core/shard.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/require.hpp"
#include "core/scenarios.hpp"
#include "graph/partition.hpp"

namespace lgg::core {
namespace {

void expect_plan_consistent(const SdNetwork& net, std::uint32_t k) {
  SCOPED_TRACE("k=" + std::to_string(k));
  const ShardPlan plan = build_shard_plan(net, k);
  ASSERT_EQ(plan.shard_count, k);
  ASSERT_EQ(plan.shards.size(), k);

  // Node lists ascending, balanced to ±1, and together covering every
  // node exactly once.
  std::vector<int> seen(static_cast<std::size_t>(net.node_count()), 0);
  std::size_t smallest = plan.shards[0].nodes.size();
  std::size_t largest = smallest;
  for (std::uint32_t s = 0; s < k; ++s) {
    const auto& nodes = plan.shards[s].nodes;
    EXPECT_TRUE(std::is_sorted(nodes.begin(), nodes.end()));
    for (const NodeId v : nodes) ++seen[static_cast<std::size_t>(v)];
    smallest = std::min(smallest, nodes.size());
    largest = std::max(largest, nodes.size());
  }
  EXPECT_LE(largest - smallest, 1u);
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                          [](int count) { return count == 1; }));
}

TEST(ShardPlan, ConsistentAcrossShardCounts) {
  const SdNetwork net = scenarios::grid_single(5, 6);
  for (const std::uint32_t k : {1u, 2u, 3u, 4u, 8u, 64u}) {
    expect_plan_consistent(net, k);
  }
}

TEST(ShardPlan, ConsistentOnBottleneckTopology) {
  const SdNetwork net = scenarios::barbell_bottleneck(4, 1, 2);
  for (const std::uint32_t k : {2u, 4u, 7u}) expect_plan_consistent(net, k);
}

TEST(ShardPlan, SingleShardOwnsEverything) {
  const SdNetwork net = scenarios::single_path(6);
  const ShardPlan plan = build_shard_plan(net, 1);
  EXPECT_EQ(plan.shards[0].nodes.size(),
            static_cast<std::size_t>(net.node_count()));
}

TEST(ShardPlan, BoundaryEdgesMatchPartitionCut) {
  const SdNetwork net = scenarios::single_path(10);
  const ShardPlan plan = build_shard_plan(net, 5);
  std::vector<std::uint32_t> owner(static_cast<std::size_t>(net.node_count()));
  for (std::uint32_t s = 0; s < plan.shard_count; ++s) {
    for (const NodeId v : plan.shards[s].nodes) {
      owner[static_cast<std::size_t>(v)] = s;
    }
  }
  // A path split into 5 contiguous regions has exactly 4 boundary edges.
  EXPECT_EQ(graph::cut_edges(net.topology(), owner), 4u);
}

TEST(ShardPlan, RejectsZeroShards) {
  const SdNetwork net = scenarios::single_path(4);
  EXPECT_THROW(build_shard_plan(net, 0), ContractViolation);
}

}  // namespace
}  // namespace lgg::core
