// The static node-ownership plan behind the shard engine.
//
// A ShardPlan fixes, for one network and one shard count K, the ascending
// node list each shard selects for, preserving the serial engine's visit
// order within a shard.  The lists are disjoint and cover every node, so
// the shards' proposal lists merge back into the serial proposal order.
//
// The plan derives deterministically from (base graph, K) via the BFS
// edge-cut partitioner (graph/partition.hpp).  It holds no trajectory
// state: rebuilding it (enable_sharding after a checkpoint restore, or
// with a different K) never perturbs the run.
#pragma once

#include <cstdint>
#include <vector>

#include "core/sd_network.hpp"

namespace lgg::core {

struct ShardPlan {
  struct Shard {
    std::vector<NodeId> nodes;  ///< owned nodes, ascending
  };

  std::uint32_t shard_count = 0;
  std::vector<Shard> shards;
};

/// Builds the plan for `net` with `shard_count` shards (>= 1).  Shard node
/// counts differ by at most one; shards may be empty when shard_count
/// exceeds the node count.
ShardPlan build_shard_plan(const SdNetwork& net, std::uint32_t shard_count);

}  // namespace lgg::core
