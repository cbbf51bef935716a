#include "flow/feasibility.hpp"

#include <gtest/gtest.h>

#include "flow/max_flow.hpp"
#include "graph/generators.hpp"

namespace lgg::flow {
namespace {

TEST(ExtendedGraph, StructureMatchesFigure2) {
  const graph::Multigraph g = graph::make_path(3);
  const std::vector<RatedNode> sources = {{0, 2}};
  const std::vector<RatedNode> sinks = {{2, 3}};
  const ExtendedGraph ext = build_extended_graph(g, sources, sinks);
  EXPECT_EQ(ext.net.node_count(), 5);  // 3 + s* + d*
  ASSERT_EQ(ext.source_arcs.size(), 1u);
  ASSERT_EQ(ext.sink_arcs.size(), 1u);
  EXPECT_EQ(ext.net.capacity(ext.source_arcs[0]), 2);
  EXPECT_EQ(ext.net.capacity(ext.sink_arcs[0]), 3);
  EXPECT_EQ(ext.net.from(ext.source_arcs[0]), ext.s_star);
  EXPECT_EQ(ext.net.to(ext.sink_arcs[0]), ext.d_star);
  // Each undirected link became two opposite unit arcs.
  ASSERT_EQ(ext.forward_edge_arcs.size(), 2u);
  ASSERT_EQ(ext.backward_edge_arcs.size(), 2u);
  EXPECT_EQ(ext.net.capacity(ext.forward_edge_arcs[0]), 1);
  EXPECT_EQ(ext.net.to(ext.forward_edge_arcs[0]),
            ext.net.from(ext.backward_edge_arcs[0]));
}

TEST(ExtendedGraph, GeneralizedNodeGetsBothArcs) {
  // A node appearing as both source and sink (Fig. 4).
  const graph::Multigraph g = graph::make_path(2);
  const std::vector<RatedNode> sources = {{0, 1}, {1, 1}};
  const std::vector<RatedNode> sinks = {{0, 2}, {1, 2}};
  const ExtendedGraph ext = build_extended_graph(g, sources, sinks);
  EXPECT_EQ(ext.source_arcs.size(), 2u);
  EXPECT_EQ(ext.sink_arcs.size(), 2u);
}

TEST(Feasibility, UnitPathIsFeasibleSaturated) {
  // One unit link, in = 1 = capacity: feasible but no ε slack.
  const graph::Multigraph g = graph::make_path(2);
  const auto report =
      analyze_feasibility(g, {{RatedNode{0, 1}}}, {{RatedNode{1, 2}}});
  EXPECT_TRUE(report.feasible);
  EXPECT_FALSE(report.unsaturated);
  EXPECT_DOUBLE_EQ(report.epsilon, 0.0);
  EXPECT_EQ(report.fstar, 1);
  EXPECT_EQ(report.arrival_rate, 1);
}

TEST(Feasibility, FatPathIsUnsaturated) {
  // Three parallel links, in = 1: margin ε = 2 (flow can triple).
  const graph::Multigraph g = graph::make_fat_path(2, 3);
  const auto report =
      analyze_feasibility(g, {{RatedNode{0, 1}}}, {{RatedNode{1, 3}}});
  EXPECT_TRUE(report.feasible);
  EXPECT_TRUE(report.unsaturated);
  EXPECT_NEAR(report.epsilon, 2.0, 1e-9);
  EXPECT_EQ(report.fstar, 3);
}

TEST(Feasibility, SinkRateCanBeTheBinder) {
  // Wide graph, narrow sink: f* limited by out(d).
  const graph::Multigraph g = graph::make_fat_path(2, 5);
  const auto report =
      analyze_feasibility(g, {{RatedNode{0, 2}}}, {{RatedNode{1, 3}}});
  EXPECT_TRUE(report.feasible);
  EXPECT_EQ(report.fstar, 3);
  EXPECT_NEAR(report.epsilon, 0.5, 1e-3);  // 2 -> 3 max
}

TEST(Feasibility, OverloadedIsInfeasible) {
  const graph::Multigraph g = graph::make_path(2);
  const auto report =
      analyze_feasibility(g, {{RatedNode{0, 2}}}, {{RatedNode{1, 5}}});
  EXPECT_FALSE(report.feasible);
  EXPECT_EQ(report.max_flow_at_rates, 1);
  EXPECT_EQ(report.fstar, 1);
  EXPECT_FALSE(report.unsaturated);
}

TEST(Feasibility, CutLocationAtSourceWhenUnsaturated) {
  const graph::Multigraph g = graph::make_fat_path(3, 4);
  const auto report =
      analyze_feasibility(g, {{RatedNode{0, 1}}}, {{RatedNode{2, 4}}});
  ASSERT_TRUE(report.unsaturated);
  EXPECT_TRUE(report.location.at_source);
  EXPECT_TRUE(report.location.unique_at_source);
}

TEST(Feasibility, CutLocationAtSinkWhenRatesMatch) {
  // in = out = f*: min cuts at both virtual terminals (Section V-B).
  const graph::Multigraph g = graph::make_fat_path(2, 2);
  const auto report =
      analyze_feasibility(g, {{RatedNode{0, 2}}}, {{RatedNode{1, 2}}});
  ASSERT_TRUE(report.feasible);
  EXPECT_FALSE(report.unsaturated);
  EXPECT_TRUE(report.location.at_source);
  EXPECT_TRUE(report.location.at_sink);
}

TEST(Feasibility, InternalCutOnBarbell) {
  // Barbell: single bridge, source and sink in opposite cliques with
  // rate 1 = bridge capacity: the bridge is a saturated internal cut.
  const graph::Multigraph g = graph::make_barbell(3);
  const auto report = analyze_feasibility(g, {{RatedNode{0, 1}}},
                                          {{RatedNode{5, 1}}});
  ASSERT_TRUE(report.feasible);
  EXPECT_FALSE(report.unsaturated);
  EXPECT_TRUE(report.location.internal);
}

TEST(Feasibility, MultipleSourcesAggregate) {
  const graph::Multigraph g = graph::make_complete_bipartite(2, 2);
  const auto report = analyze_feasibility(
      g, {{RatedNode{0, 1}, RatedNode{1, 1}}},
      {{RatedNode{2, 2}, RatedNode{3, 2}}});
  EXPECT_TRUE(report.feasible);
  EXPECT_EQ(report.arrival_rate, 2);
  EXPECT_TRUE(report.unsaturated);  // each source has degree 2
  EXPECT_NEAR(report.epsilon, 1.0, 1e-3);
}

TEST(Feasibility, EmptySourcesRejected) {
  const graph::Multigraph g = graph::make_path(2);
  EXPECT_THROW(
      analyze_feasibility(g, {}, {{RatedNode{1, 1}}}), ContractViolation);
  EXPECT_THROW(
      analyze_feasibility(g, {{RatedNode{0, 1}}}, {}), ContractViolation);
}

TEST(Feasibility, BadRatesRejected) {
  const graph::Multigraph g = graph::make_path(2);
  EXPECT_THROW(analyze_feasibility(g, {{RatedNode{0, 0}}},
                                   {{RatedNode{1, 1}}}),
               ContractViolation);
  EXPECT_THROW(analyze_feasibility(g, {{RatedNode{5, 1}}},
                                   {{RatedNode{1, 1}}}),
               ContractViolation);
}

TEST(Feasibility, OverflowingRatesRejected) {
  // in(s) near 2^62 (an .sdnet file can say so): scaling by kEpsilonDenom
  // or summing capacities would overflow Cap, which must throw, not wrap.
  const graph::Multigraph g = graph::make_path(2);
  const Cap huge = Cap{1} << 62;
  EXPECT_THROW(analyze_feasibility(g, {{RatedNode{0, huge}}},
                                   {{RatedNode{1, 1}}}),
               ContractViolation);
  EXPECT_THROW(analyze_feasibility(g, {{RatedNode{0, 1}}},
                                   {{RatedNode{1, huge}}}),
               ContractViolation);
  EXPECT_THROW(analyze_feasibility(
                   g, {{RatedNode{0, huge}, RatedNode{1, huge}}},
                   {{RatedNode{1, 1}}}),
               ContractViolation);
  EXPECT_THROW(build_extended_graph(g, {{RatedNode{0, huge}}},
                                    {{RatedNode{1, huge}}}),
               ContractViolation);
  ExtendedGraphOptions scaled;
  scaled.source_scale = 4;
  EXPECT_THROW(build_extended_graph(g, {{RatedNode{0, huge}}},
                                    {{RatedNode{1, 1}}}, scaled),
               ContractViolation);
}

TEST(MaxArrivalScaling, MatchesEpsilonPlusOne) {
  const graph::Multigraph g = graph::make_fat_path(2, 3);
  const double lambda =
      max_arrival_scaling(g, {{RatedNode{0, 1}}}, {{RatedNode{1, 3}}});
  EXPECT_EQ(lambda, 3.0);
}

TEST(MaxArrivalScaling, BelowOneForInfeasible) {
  const graph::Multigraph g = graph::make_path(2);
  const double lambda =
      max_arrival_scaling(g, {{RatedNode{0, 4}}}, {{RatedNode{1, 4}}});
  EXPECT_EQ(lambda, 0.25);
}

}  // namespace
}  // namespace lgg::flow
