// The paper's extended graph G* (Section II, Fig. 2 and Fig. 4) and the
// feasibility / saturation analysis built on it:
//
//   * G* adds a virtual source s* with arcs (s*, s) of capacity in(s) and a
//     virtual sink d* with arcs (d, d*) of capacity out(d); every undirected
//     link of G becomes a pair of opposite unit-capacity arcs.
//   * feasible        ⇔ a max s*-d* flow saturates every (s*, s) arc (Def. 3)
//   * unsaturated     ⇔ still feasible with source capacities (1+ε)·in(s)
//                        for some ε > 0 (Def. 4)
//   * f*              =  max flow value with unbounded source arcs
//
// R-generalized networks (Defs 7–8) are covered by the same machinery: a
// node may appear in both the sources and the sinks list (it gets both an
// (s*, v) and a (v, d*) arc, as in Fig. 4).
//
// ε comes from parametric scaling: with every capacity scaled by
// B = kEpsilonDenom and the source rates by a, a cut C of G* has capacity
// a·s(C) + r(C), s(C) being the rates of the source arcs it crosses.  Discrete
// Newton on min cuts, from ⌊B·f*/Σin⌋ down, finds the largest a with max flow
// a·Σin in a few solves on one G*.  ε = a/B − 1 is a lower bound on the true
// margin (within 1/B), which keeps every bound computed from it conservative.
#pragma once

#include <span>
#include <vector>

#include "flow/flow_network.hpp"
#include "flow/min_cut.hpp"
#include "graph/multigraph.hpp"

namespace lgg::flow {

/// A source (rate = in(s) > 0) or destination (rate = out(d) > 0) node.
struct RatedNode {
  NodeId node;
  Cap rate;

  friend bool operator==(const RatedNode&, const RatedNode&) = default;
};

/// Denominator of the parametric ε grid (ε resolution = 1/1024).
inline constexpr Cap kEpsilonDenom = 1024;

struct ExtendedGraphOptions {
  /// Capacity assigned to each direction of every undirected link of G.
  Cap edge_capacity = 1;
  /// Multiplier applied to every out(d) sink rate.
  Cap sink_scale = 1;
  /// Multiplier applied to every in(s) source rate.
  Cap source_scale = 1;
  /// When true, the (s*, s) arcs get effectively unbounded capacity
  /// (used to compute f*).
  bool unbounded_sources = false;
};

/// G* plus handles into its arc structure.
struct ExtendedGraph {
  FlowNetwork net;
  NodeId s_star = kInvalidNode;
  NodeId d_star = kInvalidNode;
  std::vector<ArcId> source_arcs;        // parallel to the sources span
  std::vector<ArcId> sink_arcs;          // parallel to the sinks span
  std::vector<ArcId> forward_edge_arcs;  // per edge e of G: arc u(e) -> v(e)
  std::vector<ArcId> backward_edge_arcs; // per edge e of G: arc v(e) -> u(e)
};

ExtendedGraph build_extended_graph(const graph::Multigraph& g,
                                   std::span<const RatedNode> sources,
                                   std::span<const RatedNode> sinks,
                                   const ExtendedGraphOptions& options = {});

/// Outcome of the full Section-II / Section-V analysis of an instance.
struct FeasibilityReport {
  Cap arrival_rate = 0;      // Σ in(s)
  Cap fstar = 0;             // max flow with unbounded source arcs
  Cap max_flow_at_rates = 0; // max flow with capacities in(s)
  bool feasible = false;     // Definition 3
  bool unsaturated = false;  // Definition 4 (ε > 0)
  double epsilon = 0.0;      // largest margin on the 1/kEpsilonDenom grid
  CutLocation location;      // min-cut placement after the exact solve
};

FeasibilityReport analyze_feasibility(const graph::Multigraph& g,
                                      std::span<const RatedNode> sources,
                                      std::span<const RatedNode> sinks);

/// Largest λ on the 1/kEpsilonDenom grid such that the network is feasible
/// with source rates λ·in(s), found like ε: at least 1 exactly when the
/// network is feasible, and then equal to 1 + ε.
double max_arrival_scaling(const graph::Multigraph& g,
                           std::span<const RatedNode> sources,
                           std::span<const RatedNode> sinks);

}  // namespace lgg::flow
