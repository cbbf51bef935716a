// Undirected multigraph: the network model G = (V, E) of Section II of the
// paper.  Parallel edges are first-class (each edge/"link" can carry one
// packet per step), self-loops are rejected (a loop cannot lower a gradient).
//
// The structure is append-only for nodes and edges; dynamic topologies
// (Conjecture 4) are modelled with an external EdgeMask overlay so the base
// graph stays immutable during a simulation.
#pragma once

#include <span>
#include <vector>

#include "common/require.hpp"
#include "common/types.hpp"

namespace lgg::graph {

/// One incidence record: the edge id and the node at the other end.
struct IncidentLink {
  EdgeId edge;
  NodeId neighbor;

  friend bool operator==(const IncidentLink&, const IncidentLink&) = default;
};

/// Endpoints of an edge, in insertion order.
struct Endpoints {
  NodeId u;
  NodeId v;

  friend bool operator==(const Endpoints&, const Endpoints&) = default;
};

class Multigraph {
 public:
  Multigraph() = default;

  /// Creates a graph with `n` isolated nodes.
  explicit Multigraph(NodeId n) {
    LGG_REQUIRE(n >= 0, "node count must be non-negative");
    incidence_.resize(static_cast<std::size_t>(n));
  }

  /// Creates a graph with `n` nodes and edges[i] as edge i: the same graph,
  /// edge ids and incidence order as add_edge(edges[i].u, edges[i].v) in
  /// order, rejecting the same edges, with every incidence list sized once.
  Multigraph(NodeId n, std::vector<Endpoints> edges);

  /// Appends an isolated node and returns its id.
  NodeId add_node() {
    incidence_.emplace_back();
    return static_cast<NodeId>(incidence_.size() - 1);
  }

  /// Appends an undirected edge between distinct existing nodes and returns
  /// its id.  Parallel edges are allowed and get fresh ids.
  EdgeId add_edge(NodeId u, NodeId v);

  [[nodiscard]] NodeId node_count() const {
    return static_cast<NodeId>(incidence_.size());
  }
  [[nodiscard]] EdgeId edge_count() const {
    return static_cast<EdgeId>(edges_.size());
  }

  [[nodiscard]] bool valid_node(NodeId v) const {
    return v >= 0 && v < node_count();
  }
  [[nodiscard]] bool valid_edge(EdgeId e) const {
    return e >= 0 && e < edge_count();
  }

  /// Degree with multiplicity: |Γ(v)| counting parallel edges, matching the
  /// paper's Δ (per-step queue change is bounded by this degree).
  [[nodiscard]] int degree(NodeId v) const {
    LGG_REQUIRE(valid_node(v), "degree: bad node");
    return static_cast<int>(incidence_[static_cast<std::size_t>(v)].size());
  }

  /// Δ = max_v |Γ(v)|; 0 for an empty graph.
  [[nodiscard]] int max_degree() const;

  /// All links incident to `v` (each parallel edge appears once), in
  /// insertion order, i.e. by ascending edge id.
  [[nodiscard]] std::span<const IncidentLink> incident(NodeId v) const {
    LGG_REQUIRE(valid_node(v), "incident: bad node");
    return incidence_[static_cast<std::size_t>(v)];
  }

  [[nodiscard]] Endpoints endpoints(EdgeId e) const {
    LGG_REQUIRE(valid_edge(e), "endpoints: bad edge");
    return edges_[static_cast<std::size_t>(e)];
  }

  /// The endpoint of `e` that is not `v`.
  [[nodiscard]] NodeId other_endpoint(EdgeId e, NodeId v) const {
    const Endpoints ep = endpoints(e);
    LGG_REQUIRE(ep.u == v || ep.v == v, "other_endpoint: node not on edge");
    return ep.u == v ? ep.v : ep.u;
  }

  /// Number of parallel edges between u and v (O(deg u)).
  [[nodiscard]] int multiplicity(NodeId u, NodeId v) const;

  friend bool operator==(const Multigraph& a, const Multigraph& b) {
    return a.edges_ == b.edges_ && a.node_count() == b.node_count();
  }

 private:
  /// Rejects what add_edge rejects: a bad endpoint or a self-loop.
  void check_edge(NodeId u, NodeId v) const;

  std::vector<Endpoints> edges_;
  std::vector<std::vector<IncidentLink>> incidence_;
};

/// Flat CSR snapshot of a multigraph's incidence, built once per simulation
/// for cache-friendly traversal in the hot loop.  Each node's links are
/// stored twice: in insertion order (incident(), the order the baselines
/// and LGG's random tie-break shuffle walk) and as parallel neighbour-id /
/// edge-id arrays in ascending (neighbour, edge) order (LGG's canonical
/// tie-break order, scanned branch-light by its selection).
class CsrIncidence {
 public:
  CsrIncidence() = default;
  explicit CsrIncidence(const Multigraph& g);

  [[nodiscard]] NodeId node_count() const {
    return static_cast<NodeId>(offsets_.empty() ? 0 : offsets_.size() - 1);
  }

  [[nodiscard]] std::span<const IncidentLink> incident(NodeId v) const {
    LGG_ASSERT(v >= 0 && v < node_count());
    const auto b = offsets_[static_cast<std::size_t>(v)];
    const auto e = offsets_[static_cast<std::size_t>(v) + 1];
    return {links_.data() + b, links_.data() + e};
  }

  /// v's neighbour ids in ascending (neighbour, edge) order; entry i is
  /// the far end of ordered_edges(v)[i].
  [[nodiscard]] std::span<const NodeId> ordered_neighbors(NodeId v) const {
    LGG_ASSERT(v >= 0 && v < node_count());
    const auto b = offsets_[static_cast<std::size_t>(v)];
    const auto e = offsets_[static_cast<std::size_t>(v) + 1];
    return {neighbors_.data() + b, neighbors_.data() + e};
  }

  /// v's edge ids, parallel to ordered_neighbors(v).
  [[nodiscard]] std::span<const EdgeId> ordered_edges(NodeId v) const {
    LGG_ASSERT(v >= 0 && v < node_count());
    const auto b = offsets_[static_cast<std::size_t>(v)];
    const auto e = offsets_[static_cast<std::size_t>(v) + 1];
    return {edges_.data() + b, edges_.data() + e};
  }

  [[nodiscard]] int degree(NodeId v) const {
    return static_cast<int>(incident(v).size());
  }

 private:
  std::vector<std::size_t> offsets_;
  std::vector<IncidentLink> links_;
  std::vector<NodeId> neighbors_;
  std::vector<EdgeId> edges_;
};

/// Per-edge activation overlay for dynamic topologies.  Every edge of the
/// base graph is active by default.  The mask counts its inactive edges as
/// they change, so all_active() and active_count() are O(1): the step
/// hands protocols a null mask when every link is up, and they skip the
/// per-link reads.
class EdgeMask {
 public:
  EdgeMask() = default;
  explicit EdgeMask(EdgeId edge_count)
      : active_(static_cast<std::size_t>(edge_count), true) {}

  [[nodiscard]] bool active(EdgeId e) const {
    LGG_ASSERT(e >= 0 && e < static_cast<EdgeId>(active_.size()));
    return active_[static_cast<std::size_t>(e)] != 0;
  }
  void set_active(EdgeId e, bool on) {
    LGG_REQUIRE(e >= 0 && e < static_cast<EdgeId>(active_.size()),
                "EdgeMask: bad edge");
    unsigned char& slot = active_[static_cast<std::size_t>(e)];
    inactive_ += static_cast<EdgeId>(slot) - static_cast<EdgeId>(on);
    slot = on ? 1 : 0;
  }
  [[nodiscard]] EdgeId size() const {
    return static_cast<EdgeId>(active_.size());
  }
  [[nodiscard]] EdgeId active_count() const { return size() - inactive_; }
  [[nodiscard]] bool all_active() const { return inactive_ == 0; }
  void set_all(bool on);

 private:
  std::vector<unsigned char> active_;  // not vector<bool>: hot-path reads
  EdgeId inactive_ = 0;                // edges whose slot is 0
};

}  // namespace lgg::graph
