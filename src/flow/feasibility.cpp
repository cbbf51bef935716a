#include "flow/feasibility.hpp"

#include <algorithm>

#include "flow/dinic.hpp"

namespace lgg::flow {

namespace {

/// a·b + c, throwing ContractViolation where Cap would overflow: rates near
/// 2^62 read from an .sdnet file must be rejected, not wrap.
Cap checked_mul_add(Cap a, Cap b, Cap c = 0) {
  Cap product = 0, sum = 0;
  LGG_REQUIRE(!__builtin_mul_overflow(a, b, &product) &&
                  !__builtin_add_overflow(product, c, &sum),
              "G*: capacity overflows Cap");
  return sum;
}

Cap total_rate(std::span<const RatedNode> nodes) {
  Cap total = 0;
  for (const RatedNode& rn : nodes) total = checked_mul_add(rn.rate, 1, total);
  return total;
}

void validate_rated(const graph::Multigraph& g,
                    std::span<const RatedNode> nodes, const char* kind) {
  for (const RatedNode& rn : nodes) {
    LGG_REQUIRE(g.valid_node(rn.node), std::string(kind) + ": bad node id");
    LGG_REQUIRE(rn.rate > 0, std::string(kind) + ": rate must be positive");
  }
}

}  // namespace

ExtendedGraph build_extended_graph(const graph::Multigraph& g,
                                   std::span<const RatedNode> sources,
                                   std::span<const RatedNode> sinks,
                                   const ExtendedGraphOptions& options) {
  validate_rated(g, sources, "sources");
  validate_rated(g, sinks, "sinks");
  LGG_REQUIRE(options.edge_capacity >= 1, "edge_capacity >= 1");
  LGG_REQUIRE(options.sink_scale >= 1, "sink_scale >= 1");
  LGG_REQUIRE(options.source_scale >= 1 || options.unbounded_sources,
              "source_scale >= 1");

  ExtendedGraph ext;
  ext.s_star = g.node_count();
  ext.d_star = g.node_count() + 1;

  // A capacity that no single cut can be limited by: above the sum of all
  // finite capacities in the instance.
  Cap unbounded = checked_mul_add(2 * static_cast<Cap>(g.edge_count()),
                                  options.edge_capacity, 1);
  for (const RatedNode& rn : sinks) {
    unbounded = checked_mul_add(rn.rate, options.sink_scale, unbounded);
  }
  for (const RatedNode& rn : sources) {
    unbounded = checked_mul_add(
        rn.rate, std::max<Cap>(options.source_scale, 1), unbounded);
  }

  // The arc list: the (s*, s) arcs, the (d, d*) arcs, then per edge e of G
  // the arcs u(e) -> v(e) and v(e) -> u(e).  Entry i is arc 2i; arc_at
  // computes it, so G* is laid out without storing the list.
  const std::size_t first_edge = sources.size() + sinks.size();
  const auto edges = static_cast<std::size_t>(g.edge_count());
  const auto arc_at = [&](std::size_t i) -> ArcSpec {
    if (i < sources.size()) {
      return {ext.s_star, sources[i].node,
              options.unbounded_sources
                  ? unbounded
                  : checked_mul_add(sources[i].rate, options.source_scale)};
    }
    if (i < first_edge) {
      const RatedNode& rn = sinks[i - sources.size()];
      return {rn.node, ext.d_star,
              checked_mul_add(rn.rate, options.sink_scale)};
    }
    const std::size_t k = i - first_edge;
    const graph::Endpoints ep = g.endpoints(static_cast<EdgeId>(k / 2));
    return (k & 1) == 0 ? ArcSpec{ep.u, ep.v, options.edge_capacity}
                        : ArcSpec{ep.v, ep.u, options.edge_capacity};
  };
  ext.net = FlowNetwork(g.node_count() + 2, first_edge + 2 * edges, arc_at);
  const auto arc_ids = [](std::size_t first, std::size_t count,
                          std::size_t stride) {
    std::vector<ArcId> ids(count);
    for (std::size_t k = 0; k < count; ++k) {
      ids[k] = static_cast<ArcId>(2 * (first + k * stride));
    }
    return ids;
  };
  ext.source_arcs = arc_ids(0, sources.size(), 1);
  ext.sink_arcs = arc_ids(sources.size(), sinks.size(), 1);
  ext.forward_edge_arcs = arc_ids(first_edge, edges, 2);
  ext.backward_edge_arcs = arc_ids(first_edge + 1, edges, 2);
  return ext;
}

namespace {

/// G* in units of 1/B (see the header); the source arcs start unbounded.
constexpr ExtendedGraphOptions kParametric{.edge_capacity = kEpsilonDenom,
                                           .sink_scale = kEpsilonDenom,
                                           .unbounded_sources = true};

/// A flow on G* that Newton probes start from, and its value.
struct WarmStart {
  std::vector<Cap> flows;  // FlowNetwork::arc_flows()
  Cap value = 0;
};

/// Sets every (s*, s) arc to capacity a·in(s), with no flow on it.
void set_source_caps(ExtendedGraph& ext, std::span<const RatedNode> sources,
                     Cap a) {
  for (std::size_t i = 0; i < sources.size(); ++i) {
    ext.net.set_capacity(ext.source_arcs[i],
                         checked_mul_add(sources[i].rate, a));
  }
}

/// F(a), continued from `start`, whose source-arc flows must fit under
/// a·in(s).
Cap solve_at(ExtendedGraph& ext, std::span<const RatedNode> sources,
             const WarmStart& start, Cap a) {
  set_source_caps(ext, sources, a);
  ext.net.restore_flows(start.flows);
  return start.value + dinic_max_flow(ext.net, ext.s_star, ext.d_star);
}

/// The largest feasible a <= `a`, given a feasible `known` <= the answer;
/// `start` must fit under every probe's source capacities.
/// An infeasible probe's smallest min cut C has s(C) < R and bounds every
/// feasible a' by a'·(R − s(C)) <= r(C), so the next probe ⌊r(C)/(R − s(C))⌋
/// is below this one but not below the answer: the first feasible probe is it.
Cap largest_feasible(ExtendedGraph& ext, std::span<const RatedNode> sources,
                     const WarmStart& start, Cap a, Cap known) {
  const Cap rate = total_rate(sources);
  while (a > known) {
    const Cap value = solve_at(ext, sources, start, a);
    if (value == checked_mul_add(a, rate)) break;
    const std::vector<char> side =
        min_cut_sides(ext.net, ext.s_star, ext.d_star).min_side;
    Cap slope = 0;  // s(C)
    for (const RatedNode& rn : sources) {
      if (!side[static_cast<std::size_t>(rn.node)]) slope += rn.rate;
    }
    LGG_ASSERT(slope < rate);
    a = (value - a * slope) / (rate - slope);
  }
  return a;
}

}  // namespace

FeasibilityReport analyze_feasibility(const graph::Multigraph& g,
                                      std::span<const RatedNode> sources,
                                      std::span<const RatedNode> sinks) {
  LGG_REQUIRE(!sources.empty(), "analyze_feasibility: no sources");
  LGG_REQUIRE(!sinks.empty(), "analyze_feasibility: no sinks");
  ExtendedGraph ext = build_extended_graph(g, sources, sinks, kParametric);
  const Cap unbounded = ext.net.capacity(ext.source_arcs.front());
  FeasibilityReport report;
  report.arrival_rate = total_rate(sources);
  // F(B) from zero flow; f* and every Newton probe a >= B continue from a
  // copy of that flow, raising only source capacities over it.
  set_source_caps(ext, sources, kEpsilonDenom);
  const Cap value_at_rates = dinic_max_flow(ext.net, ext.s_star, ext.d_star);
  const WarmStart at_rates{ext.net.arc_flows(), value_at_rates};
  // Scaling every capacity by B scales every cut alike: the flow value
  // scales, and the min-cut family, hence the cut placement, does not.
  report.max_flow_at_rates = at_rates.value / kEpsilonDenom;
  report.feasible = (report.max_flow_at_rates == report.arrival_rate);
  report.location = cut_location(ext.net, ext.s_star, ext.d_star);
  for (const ArcId a : ext.source_arcs) {
    ext.net.set_capacity_keep_flow(a, unbounded);
  }
  const Cap scaled_fstar =
      at_rates.value + dinic_max_flow(ext.net, ext.s_star, ext.d_star);
  report.fstar = scaled_fstar / kEpsilonDenom;
  if (report.feasible) {
    // No cut with s(C) = 0 admits more than B·f*, so a <= B·f*/R.
    const Cap a =
        largest_feasible(ext, sources, at_rates,
                         scaled_fstar / report.arrival_rate, kEpsilonDenom);
    report.epsilon = static_cast<double>(a - kEpsilonDenom) /
                     static_cast<double>(kEpsilonDenom);
    report.unsaturated = (a > kEpsilonDenom);
  }
  return report;
}

double max_arrival_scaling(const graph::Multigraph& g,
                           std::span<const RatedNode> sources,
                           std::span<const RatedNode> sinks) {
  LGG_REQUIRE(!sources.empty(), "max_arrival_scaling: no sources");
  LGG_REQUIRE(!sinks.empty(), "max_arrival_scaling: no sinks");
  ExtendedGraph ext = build_extended_graph(g, sources, sinks, kParametric);
  // Probes may fall below B, so they start from zero flow.
  const WarmStart zero{ext.net.arc_flows(), 0};
  const Cap scaled_fstar = dinic_max_flow(ext.net, ext.s_star, ext.d_star);
  const Cap a = largest_feasible(ext, sources, zero,
                                 scaled_fstar / total_rate(sources), 0);
  return static_cast<double>(a) / static_cast<double>(kEpsilonDenom);
}

}  // namespace lgg::flow
