#include "core/shard.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/require.hpp"
#include "core/scenarios.hpp"

namespace lgg::core {
namespace {

void expect_plan_consistent(const SdNetwork& net, std::uint32_t k) {
  SCOPED_TRACE("k=" + std::to_string(k));
  const ShardPlan plan = build_shard_plan(net, k);
  ASSERT_EQ(plan.shard_count, k);
  ASSERT_EQ(plan.owner.size(), static_cast<std::size_t>(net.node_count()));
  ASSERT_EQ(plan.local_index.size(), plan.owner.size());
  ASSERT_EQ(plan.shards.size(), k);

  // owner / local_index / shards agree, node lists ascending and complete.
  std::size_t total = 0;
  for (std::uint32_t s = 0; s < k; ++s) {
    const auto& nodes = plan.shards[s].nodes;
    EXPECT_TRUE(std::is_sorted(nodes.begin(), nodes.end()));
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const NodeId v = nodes[i];
      EXPECT_EQ(plan.owner[static_cast<std::size_t>(v)], s);
      EXPECT_EQ(plan.local_index[static_cast<std::size_t>(v)], i);
    }
    total += nodes.size();
  }
  EXPECT_EQ(total, plan.owner.size());
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
  EXPECT_EQ(plan.boundary_edges, 0u);
  EXPECT_EQ(plan.shards[0].nodes.size(),
            static_cast<std::size_t>(net.node_count()));
}

TEST(ShardPlan, BoundaryEdgesMatchPartitionCut) {
  const SdNetwork net = scenarios::single_path(10);
  const ShardPlan plan = build_shard_plan(net, 5);
  // A path split into 5 contiguous regions has exactly 4 boundary edges.
  EXPECT_EQ(plan.boundary_edges, 4u);
}

TEST(ShardPlan, RejectsZeroShards) {
  const SdNetwork net = scenarios::single_path(4);
  EXPECT_THROW(build_shard_plan(net, 0), ContractViolation);
}

}  // namespace
}  // namespace lgg::core
