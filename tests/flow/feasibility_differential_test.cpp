// Differential suite for the parametric ε search.  analyze_feasibility and
// max_arrival_scaling (discrete Newton on min cuts over one G*) are checked
// against a verbatim copy of the binary-search implementation they replaced,
// which rebuilt G* and re-solved from zero flow for every probed numerator.
// Every FeasibilityReport field, the cut placement included, and every λ
// must match bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "flow/feasibility.hpp"
#include "flow/max_flow.hpp"
#include "graph/generators.hpp"

namespace lgg::flow {
namespace {

// ---- Reference: the binary-search implementation, verbatim -------------

Cap total_rate(std::span<const RatedNode> nodes) {
  Cap total = 0;
  for (const RatedNode& rn : nodes) total += rn.rate;
  return total;
}

/// True iff the network is feasible when source rates are multiplied by
/// numer/kEpsilonDenom (all other capacities scaled by kEpsilonDenom).
bool feasible_at_scale(const graph::Multigraph& g,
                       std::span<const RatedNode> sources,
                       std::span<const RatedNode> sinks, Cap numer) {
  ExtendedGraphOptions opt;
  opt.edge_capacity = kEpsilonDenom;
  opt.sink_scale = kEpsilonDenom;
  opt.source_scale = numer;
  ExtendedGraph ext = build_extended_graph(g, sources, sinks, opt);
  const Cap want = numer * total_rate(sources);
  const Cap value =
      solve_max_flow(ext.net, ext.s_star, ext.d_star, FlowAlgorithm::kDinic);
  return value == want;
}

FeasibilityReport reference_analyze_feasibility(
    const graph::Multigraph& g, std::span<const RatedNode> sources,
    std::span<const RatedNode> sinks) {
  LGG_REQUIRE(!sources.empty(), "analyze_feasibility: no sources");
  LGG_REQUIRE(!sinks.empty(), "analyze_feasibility: no sinks");
  FeasibilityReport report;
  report.arrival_rate = total_rate(sources);

  {  // f*: unbounded source arcs.
    ExtendedGraphOptions opt;
    opt.unbounded_sources = true;
    ExtendedGraph ext = build_extended_graph(g, sources, sinks, opt);
    report.fstar = solve_max_flow(ext.net, ext.s_star, ext.d_star,
                                  FlowAlgorithm::kDinic);
  }
  {  // Exact capacities: feasibility and cut placement.
    ExtendedGraph ext = build_extended_graph(g, sources, sinks);
    report.max_flow_at_rates = solve_max_flow(ext.net, ext.s_star, ext.d_star,
                                              FlowAlgorithm::kDinic);
    report.feasible = (report.max_flow_at_rates == report.arrival_rate);
    report.location = cut_location(ext.net, ext.s_star, ext.d_star);
  }
  if (report.feasible) {
    // Binary search the largest feasible numerator a >= kEpsilonDenom.
    // Feasibility is monotone decreasing in a (cut values are linear in a).
    Cap lo = kEpsilonDenom;  // known feasible
    Cap hi =                 // no cut can admit more than f* total
        (report.fstar / std::max<Cap>(report.arrival_rate, 1) + 2) *
        kEpsilonDenom;
    while (lo < hi) {
      const Cap mid = lo + (hi - lo + 1) / 2;
      if (feasible_at_scale(g, sources, sinks, mid)) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    report.epsilon =
        static_cast<double>(lo - kEpsilonDenom) /
        static_cast<double>(kEpsilonDenom);
    report.unsaturated = (lo > kEpsilonDenom);
  }
  return report;
}

double reference_max_arrival_scaling(const graph::Multigraph& g,
                                     std::span<const RatedNode> sources,
                                     std::span<const RatedNode> sinks) {
  LGG_REQUIRE(!sources.empty(), "max_arrival_scaling: no sources");
  LGG_REQUIRE(!sinks.empty(), "max_arrival_scaling: no sinks");
  // Find the largest feasible numerator by doubling then binary search,
  // starting from 0 (always feasible: zero flow).
  Cap rate = total_rate(sources);
  if (rate == 0) return 0.0;
  ExtendedGraphOptions probe;
  probe.unbounded_sources = true;
  ExtendedGraph ext = build_extended_graph(g, sources, sinks, probe);
  const Cap fstar =
      solve_max_flow(ext.net, ext.s_star, ext.d_star, FlowAlgorithm::kDinic);
  const Cap ceiling = (fstar / rate + 2) * kEpsilonDenom;
  Cap lo = 0, hi = ceiling;
  while (lo < hi) {
    const Cap mid = lo + (hi - lo + 1) / 2;
    if (feasible_at_scale(g, sources, sinks, mid)) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return static_cast<double>(lo) / static_cast<double>(kEpsilonDenom);
}

// ---- Harness -------------------------------------------------------------

struct Instance {
  graph::Multigraph g;
  std::vector<RatedNode> sources;
  std::vector<RatedNode> sinks;
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::string describe(const FeasibilityReport& r) {
  std::ostringstream os;
  os << "{R=" << r.arrival_rate << " f*=" << r.fstar
     << " F=" << r.max_flow_at_rates << " feasible=" << r.feasible
     << " unsaturated=" << r.unsaturated << " eps=" << r.epsilon
     << " cut=" << r.location.at_source << r.location.at_sink
     << r.location.internal << r.location.unique_at_source << "}";
  return os.str();
}

/// Runs both implementations; returns the number of mismatching outputs
/// (0, 1 or 2) and reports each as a test failure.
int compare(const Instance& in, const std::string& label) {
  const FeasibilityReport got =
      analyze_feasibility(in.g, in.sources, in.sinks);
  const FeasibilityReport want =
      reference_analyze_feasibility(in.g, in.sources, in.sinks);
  int mismatches = 0;
  const bool same_report =
      got.arrival_rate == want.arrival_rate && got.fstar == want.fstar &&
      got.max_flow_at_rates == want.max_flow_at_rates &&
      got.feasible == want.feasible && got.unsaturated == want.unsaturated &&
      same_bits(got.epsilon, want.epsilon) &&
      got.location.at_source == want.location.at_source &&
      got.location.at_sink == want.location.at_sink &&
      got.location.internal == want.location.internal &&
      got.location.unique_at_source == want.location.unique_at_source;
  if (!same_report) {
    ++mismatches;
    ADD_FAILURE() << label << ": report " << describe(got)
                  << " != reference " << describe(want);
  }
  const double lambda = max_arrival_scaling(in.g, in.sources, in.sinks);
  const double ref_lambda =
      reference_max_arrival_scaling(in.g, in.sources, in.sinks);
  if (!same_bits(lambda, ref_lambda)) {
    ++mismatches;
    ADD_FAILURE() << label << ": lambda " << lambda << " != reference "
                  << ref_lambda;
  }
  return mismatches;
}

/// The numerators discrete Newton probes, from ⌊B·f*/R⌋ down to the largest
/// feasible one, each solved on a freshly built G* through the public API.
/// Used to show that a fixture really has several breakpoints.
std::vector<Cap> newton_probes(const Instance& in) {
  const Cap rate = total_rate(in.sources);
  ExtendedGraphOptions opt;
  opt.unbounded_sources = true;
  ExtendedGraph fstar = build_extended_graph(in.g, in.sources, in.sinks, opt);
  Cap a = solve_max_flow(fstar.net, fstar.s_star, fstar.d_star) *
          kEpsilonDenom / rate;
  std::vector<Cap> probes;
  while (a > 0) {
    probes.push_back(a);
    opt = {};
    opt.edge_capacity = kEpsilonDenom;
    opt.sink_scale = kEpsilonDenom;
    opt.source_scale = a;
    ExtendedGraph ext = build_extended_graph(in.g, in.sources, in.sinks, opt);
    const Cap value = solve_max_flow(ext.net, ext.s_star, ext.d_star);
    if (value == a * rate) break;
    const std::vector<char> side =
        min_cut_sides(ext.net, ext.s_star, ext.d_star).min_side;
    Cap slope = 0;
    for (const RatedNode& rn : in.sources) {
      if (!side[static_cast<std::size_t>(rn.node)]) slope += rn.rate;
    }
    a = (value - a * slope) / (rate - slope);
  }
  return probes;
}

/// A small random S-D multigraph: 2–9 nodes, parallel edges, 1–3 sources
/// with independently drawn rates, 1–2 sinks.  Some instances make a node
/// both source and sink (Fig. 4), and some give a source or a sink no links
/// at all.
Instance fuzz_instance(std::uint64_t seed) {
  Rng rng(seed);
  const auto n = static_cast<NodeId>(rng.uniform_int(2, 9));
  Instance in{graph::Multigraph(n), {}, {}};
  // Node n-1 is isolated in about a third of the instances.
  const bool isolated = n > 2 && rng.bernoulli(0.35);
  const NodeId linked = isolated ? n - 1 : n;
  const auto m = rng.uniform_int(0, 3 * linked);
  for (std::int64_t i = 0; i < m; ++i) {
    const auto u = static_cast<NodeId>(rng.uniform_int(0, linked - 1));
    auto v = static_cast<NodeId>(rng.uniform_int(0, linked - 2));
    if (v >= u) ++v;
    const int copies = rng.bernoulli(0.3) ? 2 : 1;  // explicit parallels
    for (int c = 0; c < copies; ++c) in.g.add_edge(u, v);
  }
  std::vector<NodeId> order(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) order[static_cast<std::size_t>(v)] = v;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1],
              order[static_cast<std::size_t>(rng.uniform_int(
                  0, static_cast<std::int64_t>(i) - 1))]);
  }
  if (isolated && rng.bernoulli(0.6)) {
    // Give the isolated node a role: first in line (a source) or last (a
    // sink).
    const auto at = std::find(order.begin(), order.end(), n - 1);
    std::iter_swap(at, rng.bernoulli(0.5) ? order.begin() : order.end() - 1);
  }
  const auto k_src = std::min<std::int64_t>(rng.uniform_int(1, 3), n);
  for (std::int64_t i = 0; i < k_src; ++i) {
    in.sources.push_back(
        {order[static_cast<std::size_t>(i)], rng.uniform_int(1, 7)});
  }
  // Sinks come from the far end of the shuffle; a generalized node makes
  // the first source a sink as well.
  const bool generalized = rng.bernoulli(0.25);
  const auto k_dst = rng.uniform_int(1, 2);
  for (std::int64_t i = 0; i < k_dst; ++i) {
    const auto last = order.size() - 1;
    const std::size_t at = generalized ? (i == 0 ? 0 : last)
                                       : last - static_cast<std::size_t>(i);
    in.sinks.push_back({order[at], rng.uniform_int(1, 9)});
  }
  return in;
}

bool has_isolated_role(const Instance& in) {
  auto isolated = [&](const RatedNode& rn) {
    return in.g.degree(rn.node) == 0;
  };
  return std::any_of(in.sources.begin(), in.sources.end(), isolated) ||
         std::any_of(in.sinks.begin(), in.sinks.end(), isolated);
}

bool has_generalized_node(const Instance& in) {
  for (const RatedNode& s : in.sources) {
    for (const RatedNode& d : in.sinks) {
      if (d.node == s.node) return true;
    }
  }
  return false;
}

TEST(FeasibilityDifferential, FuzzedMultigraphsMatchBinarySearch) {
  constexpr std::uint64_t kInstances = 2400;
  int mismatches = 0;
  int feasible = 0, infeasible = 0, unsaturated = 0, saturated = 0;
  int internal = 0, at_sink = 0, generalized = 0, isolated = 0;
  int newton_steps = 0, several_breakpoints = 0, multi_source = 0;
  for (std::uint64_t seed = 0; seed < kInstances; ++seed) {
    const Instance in = fuzz_instance(seed);
    mismatches += compare(in, "seed " + std::to_string(seed));
    const FeasibilityReport r =
        reference_analyze_feasibility(in.g, in.sources, in.sinks);
    feasible += r.feasible ? 1 : 0;
    infeasible += r.feasible ? 0 : 1;
    unsaturated += r.unsaturated ? 1 : 0;
    saturated += (r.feasible && !r.unsaturated) ? 1 : 0;
    internal += r.location.internal ? 1 : 0;
    at_sink += r.location.at_sink ? 1 : 0;
    generalized += has_generalized_node(in) ? 1 : 0;
    isolated += has_isolated_role(in) ? 1 : 0;
    multi_source += in.sources.size() > 1 ? 1 : 0;
    const std::size_t probes = newton_probes(in).size();
    newton_steps += probes > 1 ? 1 : 0;
    several_breakpoints += probes > 2 ? 1 : 0;
  }
  EXPECT_EQ(mismatches, 0);
  // The family must exercise every regime and every structural feature
  // (thresholds are about half the counts the seeds give).
  EXPECT_GT(feasible, 250);
  EXPECT_GT(infeasible, 900);
  EXPECT_GT(unsaturated, 200);
  EXPECT_GT(saturated, 60);
  EXPECT_GT(internal, 800);
  EXPECT_GT(at_sink, 250);
  EXPECT_GT(generalized, 450);
  EXPECT_GT(isolated, 500);
  EXPECT_GT(multi_source, 800);
  EXPECT_GT(newton_steps, 150);
  EXPECT_GT(several_breakpoints, 10);
}

TEST(FeasibilityDifferential, SaturatedAtSourceStar) {
  // The source's own links are the binding cut: in(s) = deg(s) = 2 into a
  // fat remainder, so ε = 0 with the min cut next to s*.
  Instance in{graph::Multigraph(4), {{0, 2}}, {{3, 8}}};
  in.g.add_edge(0, 1);
  in.g.add_edge(0, 2);
  for (int i = 0; i < 3; ++i) {
    in.g.add_edge(1, 3);
    in.g.add_edge(2, 3);
  }
  EXPECT_EQ(compare(in, "saturated at s*"), 0);
  const FeasibilityReport r = analyze_feasibility(in.g, in.sources, in.sinks);
  EXPECT_TRUE(r.feasible);
  EXPECT_FALSE(r.unsaturated);
  EXPECT_TRUE(r.location.at_source);
  EXPECT_FALSE(r.location.unique_at_source);
}

TEST(FeasibilityDifferential, SaturatedAtSinkStar) {
  // in = out = f* on a wide graph: the sink arc is a min cut (Section V-B).
  Instance in{graph::make_fat_path(2, 2), {{0, 2}}, {{1, 2}}};
  EXPECT_EQ(compare(in, "saturated at d*"), 0);
  const FeasibilityReport r = analyze_feasibility(in.g, in.sources, in.sinks);
  EXPECT_TRUE(r.feasible);
  EXPECT_FALSE(r.unsaturated);
  EXPECT_TRUE(r.location.at_sink);
}

TEST(FeasibilityDifferential, InternalCutBarbell) {
  Instance in{graph::make_barbell(3), {{0, 1}}, {{5, 1}}};
  EXPECT_EQ(compare(in, "barbell"), 0);
  const FeasibilityReport r = analyze_feasibility(in.g, in.sources, in.sinks);
  EXPECT_TRUE(r.feasible);
  EXPECT_FALSE(r.unsaturated);
  EXPECT_TRUE(r.location.internal);
}

TEST(FeasibilityDifferential, Infeasible) {
  Instance in{graph::make_fat_path(3, 2), {{0, 3}, {1, 2}}, {{2, 9}}};
  EXPECT_EQ(compare(in, "infeasible"), 0);
  const FeasibilityReport r = analyze_feasibility(in.g, in.sources, in.sinks);
  EXPECT_FALSE(r.feasible);
  EXPECT_EQ(r.max_flow_at_rates, 2);
  // The links into node 2 bind: λ·5 <= 2, floored to the grid.
  EXPECT_EQ(max_arrival_scaling(in.g, in.sources, in.sinks),
            409.0 / kEpsilonDenom);
}

TEST(FeasibilityDifferential, ProbeShortByOneUnit) {
  // A source of rate 1 with one link and a source of rate 1023 with 1024
  // links: f* = 1025 and R = 1024, so Newton starts at a = B + 1, where the
  // rate-1 source's link falls short by exactly one capacity unit.  Exact
  // integer comparison must reject that probe and land on a = B (ε = 0).
  Instance in{graph::Multigraph(3), {{0, 1}, {1, 1023}}, {{2, 4096}}};
  in.g.add_edge(0, 2);
  for (int i = 0; i < 1024; ++i) in.g.add_edge(1, 2);
  EXPECT_EQ(newton_probes(in),
            (std::vector<Cap>{kEpsilonDenom + 1, kEpsilonDenom}));
  EXPECT_EQ(compare(in, "short by one"), 0);
  const FeasibilityReport r = analyze_feasibility(in.g, in.sources, in.sinks);
  EXPECT_TRUE(r.feasible);
  EXPECT_FALSE(r.unsaturated);
  EXPECT_EQ(r.epsilon, 0.0);
  EXPECT_EQ(max_arrival_scaling(in.g, in.sources, in.sinks), 1.0);
}

TEST(FeasibilityDifferential, SeveralNewtonBreakpoints) {
  // Three unit-rate sources with 2, 5 and 12 links to the sink.  From
  // ⌊19B/3⌋ the source arcs bind one by one: each probe's min cut holds the
  // sources whose links saturate, and the next breakpoint frees one more.
  Instance in{graph::Multigraph(4), {{0, 1}, {1, 1}, {2, 1}}, {{3, 64}}};
  const int links[] = {2, 5, 12};
  for (NodeId s = 0; s < 3; ++s) {
    for (int i = 0; i < links[s]; ++i) in.g.add_edge(s, 3);
  }
  EXPECT_EQ(newton_probes(in),
            (std::vector<Cap>{19 * kEpsilonDenom / 3, 7 * kEpsilonDenom / 2,
                              2 * kEpsilonDenom}));
  EXPECT_EQ(compare(in, "several breakpoints"), 0);
  const FeasibilityReport r = analyze_feasibility(in.g, in.sources, in.sinks);
  EXPECT_TRUE(r.unsaturated);
  EXPECT_EQ(r.epsilon, 1.0);
  EXPECT_EQ(max_arrival_scaling(in.g, in.sources, in.sinks), 2.0);
}

}  // namespace
}  // namespace lgg::flow
