// Warm-started incremental max-flow over the paper's extended graph G*.
//
// The static pipeline (feasibility.cpp) rebuilds G* and re-solves from
// scratch for every query; under topology churn that makes the feasibility
// certificate O(V·E²) per mutation.  This engine instead keeps one live
// FlowNetwork and *patches* the maximum flow across single mutations:
//
//   * edge activate / capacity raise: keep the old flow (still valid, still
//     capacity-respecting) and augment residual s*→d* paths to completion;
//   * edge deactivate / capacity cut: reduce the flow on the affected arc
//     down to the new capacity — first by rerouting the surplus through the
//     residual graph (which also cancels flow cycles through the arc), then
//     by draining the remainder back to the terminals — and re-augment.
//
// Correctness leans on Ford–Fulkerson, not on the patch path: every
// mutation ends with a *valid* flow and augment-to-completion, and a valid
// flow without an augmenting path is maximum.  The warm start only buys
// speed; the value is exact after every mutation.  A from-scratch
// Edmonds–Karp cross-check runs after each mutation in debug builds (and on
// demand via set_cross_check).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "flow/feasibility.hpp"
#include "flow/flow_network.hpp"
#include "graph/multigraph.hpp"

namespace lgg::flow {

/// Patch-vs-rebuild accounting, surfaced as telemetry gauges.
struct IncrementalStats {
  std::uint64_t patches = 0;        ///< single-mutation warm patches applied
  std::uint64_t rebuilds = 0;       ///< full from-scratch (re)solves
  std::uint64_t augment_paths = 0;  ///< augmenting/reroute/drain paths pushed
  std::uint64_t bfs_arcs = 0;       ///< residual arcs scanned (work proxy)
};

class IncrementalMaxFlow {
 public:
  /// Builds G* for `g` with the given rated nodes and solves it once.
  /// `mask`, when provided, deactivates the masked-off edges up front
  /// (their arcs exist at capacity 0, ready for later activation).
  IncrementalMaxFlow(const graph::Multigraph& g,
                     std::span<const RatedNode> sources,
                     std::span<const RatedNode> sinks,
                     ExtendedGraphOptions options = {},
                     const graph::EdgeMask* mask = nullptr);

  // -- mutations: each leaves the stored flow maximum ----------------------

  /// Activates or deactivates one edge of G (both direction arcs).
  void set_edge_active(EdgeId e, bool active);

  /// Replaces the in(s) rate of `v` (0 detaches the source).  Nodes that
  /// were not rated at construction get a fresh (s*, v) arc on demand.
  void set_source_rate(NodeId v, Cap rate);

  /// Replaces the out(d) rate of `v`; same lazy-arc behavior.
  void set_sink_rate(NodeId v, Cap rate);

  // -- queries -------------------------------------------------------------

  /// Current max-flow value (f* when options.unbounded_sources).
  [[nodiscard]] Cap value() const { return value_; }

  /// Σ in(s) over currently rated sources (unscaled).
  [[nodiscard]] Cap arrival_rate() const { return rate_total_; }

  /// True iff the flow saturates every (s*, s) arc — Definition 3
  /// feasibility at the engine's source_scale.  Meaningless (always false
  /// for non-empty sources) under unbounded_sources.
  [[nodiscard]] bool saturates_sources() const {
    return value_ == source_cap_total_;
  }

  [[nodiscard]] bool edge_active(EdgeId e) const;
  [[nodiscard]] Cap source_rate(NodeId v) const;
  [[nodiscard]] Cap sink_rate(NodeId v) const;
  [[nodiscard]] const IncrementalStats& stats() const { return stats_; }
  /// The live G*, holding the current maximum flow.
  [[nodiscard]] const FlowNetwork& network() const { return net_; }

  /// Arms/disarms the per-mutation from-scratch differential check.
  /// Defaults to on in assert-enabled builds, off under NDEBUG.
  void set_cross_check(bool on) { cross_check_ = on; }

 private:
  void apply_capacity(ArcId a, Cap cap);
  void lower_arc_flow(ArcId a, Cap target);
  void augment();
  void verify_against_scratch() const;
  [[nodiscard]] Cap source_cap_for(Cap rate) const;

  /// BFS for a residual path `from` ⇝ `to`, skipping the arc in slot
  /// `banned` and its twin (none when -1).  Fills parent_slot_; returns the
  /// bottleneck residual, or 0 when no path exists.
  Cap find_path(NodeId from, NodeId to, SlotId banned);
  /// Pushes `amount` along the parent_slot_ chain from `from` to `to`.
  void push_path(NodeId from, NodeId to, Cap amount);

  const graph::Multigraph* g_ = nullptr;
  ExtendedGraphOptions options_;
  Cap unbounded_cap_ = 0;

  FlowNetwork net_;
  NodeId s_star_ = kInvalidNode;
  NodeId d_star_ = kInvalidNode;
  std::vector<ArcId> forward_edge_arcs_;   // per edge of G
  std::vector<ArcId> backward_edge_arcs_;  // per edge of G
  std::vector<ArcId> source_arc_;  // per node; kInvalidArc until first rated
  std::vector<ArcId> sink_arc_;
  std::vector<Cap> source_rate_;   // unscaled in(s), 0 = not a source
  std::vector<Cap> sink_rate_;
  std::vector<char> edge_active_;

  Cap value_ = 0;
  Cap rate_total_ = 0;        // Σ unscaled source rates
  Cap source_cap_total_ = 0;  // Σ live (s*, s) arc capacities
  Cap sink_cap_total_ = 0;    // Σ live (d, d*) arc capacities

  // Epoch-stamped BFS scratch over the slot arrays, reused across
  // mutations.
  std::vector<std::uint32_t> seen_;
  std::vector<SlotId> parent_slot_;
  std::vector<NodeId> queue_;  // node count + 1: the BFS writes one past
  std::vector<SlotId> path_scratch_;
  std::uint32_t epoch_ = 0;

  IncrementalStats stats_;
  bool cross_check_ = false;
};

inline constexpr flow::ArcId kInvalidArc = -1;

}  // namespace lgg::flow
