#include "flow/feasibility.hpp"

#include <algorithm>

#include "flow/max_flow.hpp"

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
  ext.net = FlowNetwork(g.node_count());
  ext.s_star = ext.net.add_node();
  ext.d_star = ext.net.add_node();

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

  ext.source_arcs.reserve(sources.size());
  for (const RatedNode& rn : sources) {
    const Cap cap = options.unbounded_sources
                        ? unbounded
                        : checked_mul_add(rn.rate, options.source_scale);
    ext.source_arcs.push_back(ext.net.add_arc(ext.s_star, rn.node, cap));
  }
  ext.sink_arcs.reserve(sinks.size());
  for (const RatedNode& rn : sinks) {
    ext.sink_arcs.push_back(ext.net.add_arc(
        rn.node, ext.d_star, checked_mul_add(rn.rate, options.sink_scale)));
  }
  ext.forward_edge_arcs.reserve(static_cast<std::size_t>(g.edge_count()));
  ext.backward_edge_arcs.reserve(static_cast<std::size_t>(g.edge_count()));
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const graph::Endpoints ep = g.endpoints(e);
    ext.forward_edge_arcs.push_back(
        ext.net.add_arc(ep.u, ep.v, options.edge_capacity));
    ext.backward_edge_arcs.push_back(
        ext.net.add_arc(ep.v, ep.u, options.edge_capacity));
  }
  return ext;
}

namespace {

/// G* in units of 1/B (see the header); solve_at sets the source arcs.
constexpr ExtendedGraphOptions kParametric{.edge_capacity = kEpsilonDenom,
                                           .sink_scale = kEpsilonDenom,
                                           .unbounded_sources = true};

/// F(a): the max flow with every (s*, s) arc at capacity a·in(s).
Cap solve_at(ExtendedGraph& ext, std::span<const RatedNode> sources, Cap a) {
  for (std::size_t i = 0; i < sources.size(); ++i) {
    ext.net.set_capacity(ext.source_arcs[i],
                         checked_mul_add(sources[i].rate, a));
  }
  ext.net.reset_flow();
  return solve_max_flow(ext.net, ext.s_star, ext.d_star);
}

/// The largest feasible a <= `a`, given a feasible `known` <= the answer.
/// An infeasible probe's smallest min cut C has s(C) < R and bounds every
/// feasible a' by a'·(R − s(C)) <= r(C), so the next probe ⌊r(C)/(R − s(C))⌋
/// is below this one but not below the answer: the first feasible probe is it.
Cap largest_feasible(ExtendedGraph& ext, std::span<const RatedNode> sources,
                     Cap a, Cap known) {
  const Cap rate = total_rate(sources);
  while (a > known) {
    const Cap value = solve_at(ext, sources, a);
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
  FeasibilityReport report;
  report.arrival_rate = total_rate(sources);
  const Cap scaled_fstar = solve_max_flow(ext.net, ext.s_star, ext.d_star);
  report.fstar = scaled_fstar / kEpsilonDenom;
  // Scaling every capacity by B scales every cut alike: the flow value
  // scales, and the min-cut family, hence the cut placement, does not.
  report.max_flow_at_rates =
      solve_at(ext, sources, kEpsilonDenom) / kEpsilonDenom;
  report.feasible = (report.max_flow_at_rates == report.arrival_rate);
  report.location = cut_location(ext.net, ext.s_star, ext.d_star);
  if (report.feasible) {
    // No cut with s(C) = 0 admits more than B·f*, so a <= B·f*/R.
    const Cap a = largest_feasible(
        ext, sources, scaled_fstar / report.arrival_rate, kEpsilonDenom);
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
  const Cap scaled_fstar = solve_max_flow(ext.net, ext.s_star, ext.d_star);
  const Cap a =
      largest_feasible(ext, sources, scaled_fstar / total_rate(sources), 0);
  return static_cast<double>(a) / static_cast<double>(kEpsilonDenom);
}

}  // namespace lgg::flow
