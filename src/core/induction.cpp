#include "core/induction.hpp"

#include <algorithm>

#include "flow/max_flow.hpp"
#include "flow/min_cut.hpp"

namespace lgg::core {

namespace {

InternalCut cut_from_closure(const SdNetwork& net,
                             const std::vector<char>& closure,
                             [[maybe_unused]] NodeId s_star) {
  InternalCut cut;
  const NodeId n = net.node_count();
  cut.side_a.assign(static_cast<std::size_t>(n), 0);
  for (NodeId v = 0; v < n; ++v) {
    if (closure[static_cast<std::size_t>(v)]) {
      cut.side_a[static_cast<std::size_t>(v)] = 1;
      ++cut.a_size;
    } else {
      ++cut.b_size;
    }
  }
  LGG_ASSERT(closure[static_cast<std::size_t>(s_star)]);
  cut.value = net.arrival_rate();
  return cut;
}

}  // namespace

std::optional<InternalCut> find_internal_cut(const SdNetwork& net) {
  net.validate();
  const auto sources = net.source_rates();
  const auto sinks = net.sink_rates();
  flow::ExtendedGraph ext =
      flow::build_extended_graph(net.topology(), sources, sinks);
  const Cap value = flow::solve_max_flow(ext.net, ext.s_star, ext.d_star);
  LGG_REQUIRE(value == net.arrival_rate(),
              "find_internal_cut: network is not feasible");

  // A_min = residual closure of {s*}; then try to grow it around each real
  // node whose closure avoids d* (same construction as cut_location, but
  // returning the witness cut).
  std::vector<char> base(
      static_cast<std::size_t>(ext.net.node_count()), 0);
  base[static_cast<std::size_t>(ext.s_star)] = 1;
  const std::vector<char> a_min = flow::residual_closure(ext.net, base);
  LGG_REQUIRE(!a_min[static_cast<std::size_t>(ext.d_star)],
              "find_internal_cut: flow is not maximum");

  const NodeId n = net.node_count();
  auto real_count = [n](const std::vector<char>& side) {
    NodeId c = 0;
    for (NodeId v = 0; v < n; ++v) c += side[static_cast<std::size_t>(v)] ? 1 : 0;
    return c;
  };
  const NodeId a_min_real = real_count(a_min);
  if (a_min_real >= 1 && n - a_min_real >= 1) {
    return cut_from_closure(net, a_min, ext.s_star);
  }
  for (NodeId x = 0; x < n; ++x) {
    if (a_min[static_cast<std::size_t>(x)]) continue;
    std::vector<char> seed = a_min;
    seed[static_cast<std::size_t>(x)] = 1;
    const std::vector<char> closure = flow::residual_closure(ext.net, seed);
    if (closure[static_cast<std::size_t>(ext.d_star)]) continue;
    const NodeId a_real = real_count(closure);
    if (a_real >= 1 && n - a_real >= 1) {
      return cut_from_closure(net, closure, ext.s_star);
    }
  }
  return std::nullopt;
}

namespace {

/// Extracts the induced sub-network on `keep` (side indicator), promoting
/// border nodes per the Section V-C rules.
struct SideBuild {
  SdNetwork net;
  std::vector<NodeId> to_original;
};

SideBuild build_side(const SdNetwork& net, const std::vector<char>& in_side,
                     bool is_b_side, Cap retention_b) {
  const graph::Multigraph& g = net.topology();
  std::vector<NodeId> to_original;
  std::vector<NodeId> remap(static_cast<std::size_t>(g.node_count()),
                            kInvalidNode);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (in_side[static_cast<std::size_t>(v)]) {
      remap[static_cast<std::size_t>(v)] =
          static_cast<NodeId>(to_original.size());
      to_original.push_back(v);
    }
  }
  graph::Multigraph sub(static_cast<NodeId>(to_original.size()));
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const graph::Endpoints ep = g.endpoints(e);
    if (in_side[static_cast<std::size_t>(ep.u)] &&
        in_side[static_cast<std::size_t>(ep.v)]) {
      sub.add_edge(remap[static_cast<std::size_t>(ep.u)],
                   remap[static_cast<std::size_t>(ep.v)]);
    }
  }
  SdNetwork side(std::move(sub));
  for (const NodeId v : to_original) {
    const NodeSpec& spec = net.spec(v);
    // Links to the far side, with multiplicity.
    Cap border_links = 0;
    for (const graph::IncidentLink& link : g.incident(v)) {
      if (!in_side[static_cast<std::size_t>(link.neighbor)]) ++border_links;
    }
    Cap in = spec.in;
    Cap out = spec.out;
    Cap retention = spec.retention;
    if (is_b_side) {
      // x in X: neighbours in A may push one packet per link per step.
      in += border_links;
    } else {
      // y in Y: the link to B serves as extra extraction capacity, and the
      // piece becomes R_B-generalized.
      out += border_links;
      if (border_links > 0 || in > 0 || out > 0 || retention > 0) {
        retention = std::max(retention, retention_b);
      }
    }
    if (in > 0 || out > 0 || retention > 0) {
      side.set_generalized(remap[static_cast<std::size_t>(v)], in, out,
                           retention);
    }
  }
  return {std::move(side), std::move(to_original)};
}

}  // namespace

CutDecomposition decompose_at_cut(const SdNetwork& net,
                                  const InternalCut& cut, Cap retention_b) {
  LGG_REQUIRE(static_cast<NodeId>(cut.side_a.size()) == net.node_count(),
              "decompose_at_cut: cut size mismatch");
  LGG_REQUIRE(cut.a_size >= 1 && cut.b_size >= 1,
              "decompose_at_cut: cut must have real nodes on both sides");
  LGG_REQUIRE(retention_b >= 0, "decompose_at_cut: retention_b >= 0");
  CutDecomposition out;
  out.cut = cut;
  out.retention_b = retention_b;
  std::vector<char> in_b(cut.side_a.size());
  for (std::size_t i = 0; i < cut.side_a.size(); ++i) {
    in_b[i] = cut.side_a[i] ? 0 : 1;
  }
  SideBuild b = build_side(net, in_b, /*is_b_side=*/true, retention_b);
  out.b_side = std::move(b.net);
  out.b_to_original = std::move(b.to_original);
  SideBuild a = build_side(net, cut.side_a, /*is_b_side=*/false,
                           retention_b);
  out.a_side = std::move(a.net);
  out.a_to_original = std::move(a.to_original);
  return out;
}

bool verify_remark2(const CutDecomposition& decomposition) {
  // D'' non-empty: the A side must contain at least one node whose
  // extraction capacity is positive (a generalized destination).
  return !decomposition.a_side.sinks().empty();
}

bool verify_pieces_feasible(const CutDecomposition& decomposition) {
  const auto check = [](const SdNetwork& side) {
    if (side.sources().empty()) {
      // No injection anywhere: trivially stable, vacuously feasible.
      return true;
    }
    if (side.sinks().empty()) return false;
    return analyze(side).feasible;
  };
  return check(decomposition.b_side) && check(decomposition.a_side);
}

InductionTrace run_induction(const SdNetwork& net, int max_depth) {
  InductionTrace trace;
  struct Item {
    SdNetwork net;
    int depth;
  };
  std::vector<Item> stack;
  stack.push_back({net, 0});
  while (!stack.empty()) {
    Item item = std::move(stack.back());
    stack.pop_back();
    LGG_REQUIRE(item.depth <= max_depth,
                "run_induction: recursion exceeded max_depth");
    if (item.net.sources().empty() || item.net.sinks().empty() ||
        item.net.node_count() <= 1) {
      ++trace.leaves;
      trace.largest_leaf = std::max(trace.largest_leaf,
                                    item.net.node_count());
      continue;
    }
    const auto cut = find_internal_cut(item.net);
    if (!cut.has_value()) {
      // Base case: min cuts only at the virtual terminals (V-A / V-B).
      ++trace.leaves;
      trace.largest_leaf = std::max(trace.largest_leaf,
                                    item.net.node_count());
      continue;
    }
    // Any finite retention works for the structural recursion; the paper
    // instantiates R_B with B's (proved) packet-mass bound.
    const Cap retention_b =
        item.net.max_retention() + item.net.arrival_rate() *
                                       static_cast<Cap>(cut->b_size) + 1;
    CutDecomposition dec = decompose_at_cut(item.net, *cut, retention_b);
    LGG_REQUIRE(verify_remark2(dec), "run_induction: Remark 2 violated");
    LGG_REQUIRE(verify_pieces_feasible(dec),
                "run_induction: decomposition lost feasibility");
    LGG_REQUIRE(dec.a_side.node_count() < item.net.node_count() &&
                    dec.b_side.node_count() < item.net.node_count(),
                "run_induction: split did not shrink the instance");
    ++trace.splits;
    stack.push_back({std::move(dec.a_side), item.depth + 1});
    stack.push_back({std::move(dec.b_side), item.depth + 1});
  }
  return trace;
}

}  // namespace lgg::core
