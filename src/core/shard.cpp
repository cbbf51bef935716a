#include "core/shard.hpp"

#include "common/require.hpp"
#include "graph/partition.hpp"

namespace lgg::core {

ShardPlan build_shard_plan(const SdNetwork& net, std::uint32_t shard_count) {
  LGG_REQUIRE(shard_count >= 1, "build_shard_plan: shard_count >= 1");
  ShardPlan plan;
  plan.shard_count = shard_count;
  plan.shards.resize(shard_count);
  const std::vector<std::uint32_t> owner =
      graph::partition_edge_cut(net.topology(), shard_count);
  const NodeId n = net.node_count();
  for (NodeId v = 0; v < n; ++v) {
    plan.shards[owner[static_cast<std::size_t>(v)]].nodes.push_back(v);
  }
  return plan;
}

}  // namespace lgg::core
