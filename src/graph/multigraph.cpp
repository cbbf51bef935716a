#include "graph/multigraph.hpp"

#include <algorithm>
#include <numeric>

namespace lgg::graph {

Multigraph::Multigraph(NodeId n, std::vector<Endpoints> edges)
    : Multigraph(n) {
  std::vector<int> degree(static_cast<std::size_t>(n), 0);
  for (const Endpoints& ep : edges) {
    check_edge(ep.u, ep.v);
    ++degree[static_cast<std::size_t>(ep.u)];
    ++degree[static_cast<std::size_t>(ep.v)];
  }
  for (std::size_t v = 0; v < incidence_.size(); ++v) {
    incidence_[v].reserve(static_cast<std::size_t>(degree[v]));
  }
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const Endpoints ep = edges[i];
    const auto id = static_cast<EdgeId>(i);
    incidence_[static_cast<std::size_t>(ep.u)].push_back({id, ep.v});
    incidence_[static_cast<std::size_t>(ep.v)].push_back({id, ep.u});
  }
  edges_ = std::move(edges);
}

void Multigraph::check_edge(NodeId u, NodeId v) const {
  LGG_REQUIRE(valid_node(u) && valid_node(v), "add_edge: bad endpoint");
  LGG_REQUIRE(u != v, "add_edge: self-loops are not part of the model");
}

EdgeId Multigraph::add_edge(NodeId u, NodeId v) {
  check_edge(u, v);
  const auto id = static_cast<EdgeId>(edges_.size());
  edges_.push_back({u, v});
  incidence_[static_cast<std::size_t>(u)].push_back({id, v});
  incidence_[static_cast<std::size_t>(v)].push_back({id, u});
  return id;
}

int Multigraph::max_degree() const {
  int best = 0;
  for (const auto& inc : incidence_) {
    best = std::max(best, static_cast<int>(inc.size()));
  }
  return best;
}

int Multigraph::multiplicity(NodeId u, NodeId v) const {
  LGG_REQUIRE(valid_node(u) && valid_node(v), "multiplicity: bad node");
  const auto& inc = incidence_[static_cast<std::size_t>(u)];
  return static_cast<int>(std::count_if(
      inc.begin(), inc.end(),
      [v](const IncidentLink& l) { return l.neighbor == v; }));
}

CsrIncidence::CsrIncidence(const Multigraph& g) {
  const auto n = static_cast<std::size_t>(g.node_count());
  offsets_.assign(n + 1, 0);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    offsets_[static_cast<std::size_t>(v) + 1] =
        offsets_[static_cast<std::size_t>(v)] +
        static_cast<std::size_t>(g.degree(v));
  }
  links_.resize(offsets_[n]);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto inc = g.incident(v);
    std::copy(inc.begin(), inc.end(),
              links_.begin() +
                  static_cast<std::ptrdiff_t>(
                      offsets_[static_cast<std::size_t>(v)]));
  }
  // Walking the nodes w in ascending order and appending (w, e) to the far
  // end's list fills every list sorted by neighbour.  Parallel edges land
  // in w's incidence order, which is ascending edge id, so no sort runs.
  neighbors_.resize(offsets_[n]);
  edges_.resize(offsets_[n]);
  std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (NodeId w = 0; w < g.node_count(); ++w) {
    for (const IncidentLink& link : g.incident(w)) {
      const std::size_t slot =
          cursor[static_cast<std::size_t>(link.neighbor)]++;
      neighbors_[slot] = w;
      edges_[slot] = link.edge;
    }
  }
}

void EdgeMask::set_all(bool on) {
  std::fill(active_.begin(), active_.end(), on ? 1 : 0);
  inactive_ = on ? 0 : size();
}

}  // namespace lgg::graph
