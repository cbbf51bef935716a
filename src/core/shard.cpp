#include "core/shard.hpp"

#include "common/require.hpp"
#include "graph/partition.hpp"

namespace lgg::core {

ShardPlan build_shard_plan(const SdNetwork& net, std::uint32_t shard_count) {
  LGG_REQUIRE(shard_count >= 1, "build_shard_plan: shard_count >= 1");
  ShardPlan plan;
  plan.shard_count = shard_count;
  plan.owner = graph::partition_edge_cut(net.topology(), shard_count);
  plan.boundary_edges = graph::cut_edges(net.topology(), plan.owner);
  plan.shards.resize(shard_count);
  plan.local_index.resize(plan.owner.size());
  const NodeId n = net.node_count();
  for (NodeId v = 0; v < n; ++v) {
    auto& shard = plan.shards[plan.owner[static_cast<std::size_t>(v)]];
    plan.local_index[static_cast<std::size_t>(v)] =
        static_cast<std::uint32_t>(shard.nodes.size());
    shard.nodes.push_back(v);
  }
  return plan;
}

}  // namespace lgg::core
