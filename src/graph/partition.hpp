// Deterministic edge-cut node partitioning for the shard engine.
//
// The shard engine (core/parallel_step.hpp) assigns every node to exactly
// one of K shards and each shard selects for its own nodes; an edge whose
// endpoints land in different shards is a *boundary* edge, across which a
// shard reads queue state that another shard's worker reads too.  A good
// partition therefore minimizes the edge cut while keeping shard sizes
// balanced — and, because the partition
// feeds a bitwise-deterministic engine, it must itself be a pure function
// of (graph, K): no randomized refinement, no iteration-order dependence.
//
// The algorithm is BFS region growing: shard p greedily absorbs a breadth-
// first region of ⌈remaining / remaining_shards⌉ unassigned nodes, seeded
// at the lowest unassigned node id (re-seeding within the same shard when
// a connected component is exhausted).  On meshes and degree-bounded
// graphs this yields contiguous regions whose cut scales with the region
// surface, not its volume.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/multigraph.hpp"

namespace lgg::graph {

/// Assigns every node of `g` to one of `parts` shards (returned vector is
/// node-indexed, values in [0, parts)).  Deterministic: equal inputs give
/// equal partitions.  Shard sizes differ by at most one; when parts >=
/// node_count the first node_count shards hold one node each and the rest
/// are empty.  Requires parts >= 1.
std::vector<std::uint32_t> partition_edge_cut(const Multigraph& g,
                                              std::uint32_t parts);

/// Number of edges whose endpoints lie in different shards under `owner`
/// (parallel edges counted individually).
std::size_t cut_edges(const Multigraph& g,
                      std::span<const std::uint32_t> owner);

}  // namespace lgg::graph
