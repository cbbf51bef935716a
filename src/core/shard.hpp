// The static node-ownership plan behind the shard engine.
//
// A ShardPlan fixes, for one network and one shard count K, which shard
// owns each node and the ascending node list each shard iterates,
// preserving the serial engine's visit order within a shard.  Ownership
// is exclusive: only the owner shard ever mutates a node's queue, which
// is what lets the apply phase run shard-parallel without locks — a shard
// scans the full transmission list in order and applies exactly the
// mutations of its own nodes, so each node sees its mutations in
// precisely the serial order.
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
  std::vector<std::uint32_t> owner;        ///< node -> owning shard
  std::vector<std::uint32_t> local_index;  ///< node -> index in owner's nodes
  std::vector<Shard> shards;
  /// Edges whose endpoints live in different shards — each one is a
  /// potential cross-shard transmission the apply phase exchanges.
  std::size_t boundary_edges = 0;
};

/// Builds the plan for `net` with `shard_count` shards (>= 1).  Shard node
/// counts differ by at most one; shards may be empty when shard_count
/// exceeds the node count.
ShardPlan build_shard_plan(const SdNetwork& net, std::uint32_t shard_count);

}  // namespace lgg::core
