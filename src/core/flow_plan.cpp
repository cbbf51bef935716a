#include "core/flow_plan.hpp"

#include <algorithm>
#include <map>

#include "flow/max_flow.hpp"
#include "flow/path_decomposition.hpp"

namespace lgg::core {

FlowPlan build_flow_plan(const SdNetwork& net, const graph::EdgeMask* mask) {
  const graph::Multigraph& g = net.topology();
  const auto sources = net.source_rates();
  const auto sinks = net.sink_rates();

  const NodeId s_star = g.node_count();
  const NodeId d_star = g.node_count() + 1;
  std::vector<flow::ArcSpec> arcs;
  for (const flow::RatedNode& rn : sources) {
    arcs.push_back({s_star, rn.node, rn.rate});
  }
  for (const flow::RatedNode& rn : sinks) {
    arcs.push_back({rn.node, d_star, rn.rate});
  }

  std::map<flow::ArcId, Transmission> arc_to_hop;
  std::vector<std::pair<flow::ArcId, flow::ArcId>> edge_arcs;
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (mask != nullptr && !mask->active(e)) continue;
    const graph::Endpoints ep = g.endpoints(e);
    const auto fwd = static_cast<flow::ArcId>(2 * arcs.size());
    arcs.push_back({ep.u, ep.v, 1});
    arcs.push_back({ep.v, ep.u, 1});
    arc_to_hop.emplace(fwd, Transmission{e, ep.u, ep.v});
    arc_to_hop.emplace(fwd + 2, Transmission{e, ep.v, ep.u});
    edge_arcs.emplace_back(fwd, fwd + 2);
  }
  flow::FlowNetwork fn(g.node_count() + 2, arcs);

  FlowPlan plan;
  plan.value = flow::solve_max_flow(fn, s_star, d_star);
  // Opposite flows on one undirected link are an encoding artifact.
  for (const auto& [fwd, bwd] : edge_arcs) {
    const Cap m = std::min(fn.flow(fwd), fn.flow(bwd));
    if (m > 0) {
      fn.push(fwd ^ 1, m);
      fn.push(bwd ^ 1, m);
    }
  }
  for (const flow::FlowPath& path :
       flow::decompose_into_paths(fn, s_star, d_star)) {
    std::vector<Transmission> hops;
    for (const flow::ArcId a : path.arcs) {
      const auto it = arc_to_hop.find(a);
      if (it != arc_to_hop.end()) hops.push_back(it->second);
    }
    // Internal arcs have capacity 1, so a path with hops has amount 1;
    // hop-less paths (s* -> v -> d* at a generalized node) are omitted.
    if (!hops.empty()) plan.paths.push_back(std::move(hops));
  }
  return plan;
}

}  // namespace lgg::core
