#include "graph/multigraph.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "core/scenarios.hpp"
#include "core/simulator.hpp"

namespace lgg::graph {
namespace {

TEST(Multigraph, EmptyGraphHasNoNodesOrEdges) {
  const Multigraph g;
  EXPECT_EQ(g.node_count(), 0);
  EXPECT_EQ(g.edge_count(), 0);
  EXPECT_EQ(g.max_degree(), 0);
}

TEST(Multigraph, ConstructorCreatesIsolatedNodes) {
  const Multigraph g(5);
  EXPECT_EQ(g.node_count(), 5);
  EXPECT_EQ(g.edge_count(), 0);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(g.degree(v), 0);
}

TEST(Multigraph, NegativeNodeCountRejected) {
  EXPECT_THROW(Multigraph(-1), ContractViolation);
}

TEST(Multigraph, AddNodeReturnsSequentialIds) {
  Multigraph g;
  EXPECT_EQ(g.add_node(), 0);
  EXPECT_EQ(g.add_node(), 1);
  EXPECT_EQ(g.add_node(), 2);
  EXPECT_EQ(g.node_count(), 3);
}

TEST(Multigraph, AddEdgeUpdatesIncidenceOnBothEndpoints) {
  Multigraph g(3);
  const EdgeId e = g.add_edge(0, 2);
  EXPECT_EQ(e, 0);
  ASSERT_EQ(g.degree(0), 1);
  ASSERT_EQ(g.degree(2), 1);
  EXPECT_EQ(g.degree(1), 0);
  EXPECT_EQ(g.incident(0)[0].neighbor, 2);
  EXPECT_EQ(g.incident(2)[0].neighbor, 0);
  EXPECT_EQ(g.incident(0)[0].edge, e);
}

TEST(Multigraph, ParallelEdgesGetDistinctIdsAndCountInDegree) {
  Multigraph g(2);
  const EdgeId e1 = g.add_edge(0, 1);
  const EdgeId e2 = g.add_edge(0, 1);
  const EdgeId e3 = g.add_edge(1, 0);
  EXPECT_NE(e1, e2);
  EXPECT_NE(e2, e3);
  EXPECT_EQ(g.degree(0), 3);
  EXPECT_EQ(g.degree(1), 3);
  EXPECT_EQ(g.multiplicity(0, 1), 3);
  EXPECT_EQ(g.multiplicity(1, 0), 3);
}

TEST(Multigraph, SelfLoopsRejected) {
  Multigraph g(2);
  EXPECT_THROW(g.add_edge(1, 1), ContractViolation);
}

TEST(Multigraph, BadEndpointsRejected) {
  Multigraph g(2);
  EXPECT_THROW(g.add_edge(0, 2), ContractViolation);
  EXPECT_THROW(g.add_edge(-1, 0), ContractViolation);
}

TEST(Multigraph, EndpointsPreserveInsertionOrder) {
  Multigraph g(3);
  const EdgeId e = g.add_edge(2, 1);
  EXPECT_EQ(g.endpoints(e), (Endpoints{2, 1}));
  EXPECT_EQ(g.other_endpoint(e, 2), 1);
  EXPECT_EQ(g.other_endpoint(e, 1), 2);
  EXPECT_THROW((void)g.other_endpoint(e, 0), ContractViolation);
}

TEST(Multigraph, MaxDegreeTracksBusiestNode) {
  Multigraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  g.add_edge(0, 1);
  EXPECT_EQ(g.max_degree(), 4);
}

TEST(Multigraph, EqualityComparesStructure) {
  Multigraph a(2);
  a.add_edge(0, 1);
  Multigraph b(2);
  b.add_edge(0, 1);
  EXPECT_EQ(a, b);
  b.add_edge(0, 1);
  EXPECT_FALSE(a == b);
}

/// The same graph, edge ids and incidence lists, in the same order.
void expect_identical(const Multigraph& a, const Multigraph& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (EdgeId e = 0; e < a.edge_count(); ++e) {
    EXPECT_EQ(a.endpoints(e), b.endpoints(e)) << "edge " << e;
  }
  for (NodeId v = 0; v < a.node_count(); ++v) {
    const auto ia = a.incident(v);
    const auto ib = b.incident(v);
    EXPECT_EQ(std::vector<IncidentLink>(ia.begin(), ia.end()),
              std::vector<IncidentLink>(ib.begin(), ib.end()))
        << "node " << v;
  }
  EXPECT_EQ(a.max_degree(), b.max_degree());
}

Multigraph added_in_order(NodeId n, const std::vector<Endpoints>& edges) {
  Multigraph g(n);
  for (const Endpoints& ep : edges) g.add_edge(ep.u, ep.v);
  return g;
}

TEST(MultigraphFromEdges, MatchesRandomMultigraphsBuiltByAddEdge) {
  for (std::uint64_t seed = 0; seed < 120; ++seed) {
    const auto n = static_cast<NodeId>(2 + seed % 37);
    const auto m = static_cast<EdgeId>((seed * 7) % 150);
    // make_random_multigraph's draws, appended one add_edge at a time.
    Rng rng(seed);
    Multigraph reference(n);
    for (EdgeId e = 0; e < m; ++e) {
      const auto u = static_cast<NodeId>(rng.uniform_int(0, n - 1));
      auto v = static_cast<NodeId>(rng.uniform_int(0, n - 1));
      while (v == u) v = static_cast<NodeId>(rng.uniform_int(0, n - 1));
      reference.add_edge(u, v);
    }
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_identical(make_random_multigraph(n, m, seed), reference);
  }
}

TEST(MultigraphFromEdges, MatchesHandBuiltParallelEdges) {
  const std::vector<std::vector<Endpoints>> lists = {
      {},
      {{0, 1}, {1, 0}, {0, 1}},
      {{2, 3}, {0, 1}, {3, 2}, {1, 2}, {1, 2}, {0, 3}, {3, 0}},
      {{4, 0}, {4, 1}, {4, 2}, {4, 3}, {0, 4}, {2, 1}},
  };
  for (const auto& edges : lists) {
    const Multigraph built(5, edges);
    expect_identical(built, added_in_order(5, edges));
    EXPECT_EQ(built.multiplicity(0, 1),
              added_in_order(5, edges).multiplicity(0, 1));
  }
}

TEST(MultigraphFromEdges, RejectsWhatAddEdgeRejects) {
  const std::vector<std::vector<Endpoints>> bad = {
      {{0, 1}, {1, 3}},   // endpoint past the last node
      {{-1, 0}},          // negative endpoint
      {{0, 1}, {2, 2}},   // self-loop
  };
  for (const auto& edges : bad) {
    std::string from_list, from_add;
    try {
      (void)Multigraph(3, edges);
    } catch (const ContractViolation& e) {
      from_list = e.what();
    }
    try {
      (void)added_in_order(3, edges);
    } catch (const ContractViolation& e) {
      from_add = e.what();
    }
    EXPECT_FALSE(from_list.empty());
    EXPECT_EQ(from_list, from_add);
  }
}

TEST(CsrIncidence, MatchesAdjacencyOfSource) {
  Multigraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(1, 3);
  const CsrIncidence csr(g);
  ASSERT_EQ(csr.node_count(), 4);
  for (NodeId v = 0; v < 4; ++v) {
    const auto from_graph = g.incident(v);
    const auto from_csr = csr.incident(v);
    ASSERT_EQ(from_graph.size(), from_csr.size());
    for (std::size_t i = 0; i < from_graph.size(); ++i) {
      EXPECT_EQ(from_graph[i], from_csr[i]);
    }
  }
}

TEST(CsrIncidence, OrderedArraysSortByNeighbourThenEdge) {
  Multigraph g(4);
  g.add_edge(1, 3);  // 0
  g.add_edge(1, 0);  // 1
  g.add_edge(3, 1);  // 2: parallel to edge 0
  g.add_edge(1, 2);  // 3
  g.add_edge(0, 1);  // 4: parallel to edge 1
  const CsrIncidence csr(g);
  const auto nbrs = csr.ordered_neighbors(1);
  const auto edges = csr.ordered_edges(1);
  EXPECT_EQ(std::vector<NodeId>(nbrs.begin(), nbrs.end()),
            (std::vector<NodeId>{0, 0, 2, 3, 3}));
  EXPECT_EQ(std::vector<EdgeId>(edges.begin(), edges.end()),
            (std::vector<EdgeId>{1, 4, 3, 0, 2}));
  // Insertion order is kept alongside.
  EXPECT_EQ(csr.incident(1)[0], (IncidentLink{0, 3}));
  EXPECT_EQ(csr.ordered_neighbors(2).size(), 1u);
  EXPECT_EQ(csr.ordered_edges(2)[0], 3);
}

TEST(CsrIncidence, EmptyGraph) {
  const CsrIncidence csr{Multigraph(0)};
  EXPECT_EQ(csr.node_count(), 0);
}

TEST(EdgeMask, DefaultsAllActive) {
  const EdgeMask mask(4);
  EXPECT_EQ(mask.size(), 4);
  EXPECT_EQ(mask.active_count(), 4);
  for (EdgeId e = 0; e < 4; ++e) EXPECT_TRUE(mask.active(e));
}

TEST(EdgeMask, SetActiveTogglesSingleEdge) {
  EdgeMask mask(3);
  mask.set_active(1, false);
  EXPECT_FALSE(mask.active(1));
  EXPECT_TRUE(mask.active(0));
  EXPECT_EQ(mask.active_count(), 2);
  mask.set_active(1, true);
  EXPECT_EQ(mask.active_count(), 3);
}

TEST(EdgeMask, SetAllFlipsEverything) {
  EdgeMask mask(5);
  mask.set_all(false);
  EXPECT_EQ(mask.active_count(), 0);
  mask.set_all(true);
  EXPECT_EQ(mask.active_count(), 5);
}

// all_active() and active_count() read a count the mask maintains as it
// changes; after every kind of mutation both must agree with a full scan.
void expect_counts_match_scan(const EdgeMask& mask) {
  EdgeId on = 0;
  for (EdgeId e = 0; e < mask.size(); ++e) on += mask.active(e) ? 1 : 0;
  EXPECT_EQ(mask.active_count(), on);
  EXPECT_EQ(mask.all_active(), on == mask.size());
}

TEST(EdgeMask, CountsMatchAFullScanAfterEveryMutation) {
  EdgeMask mask(6);
  expect_counts_match_scan(mask);
  EXPECT_TRUE(mask.all_active());

  mask.set_active(2, false);
  mask.set_active(2, false);  // already off: no second count
  expect_counts_match_scan(mask);
  EXPECT_EQ(mask.active_count(), 5);

  mask.set_active(3, true);  // already on
  expect_counts_match_scan(mask);
  EXPECT_EQ(mask.active_count(), 5);
  EXPECT_FALSE(mask.all_active());

  mask.set_active(2, true);
  expect_counts_match_scan(mask);
  EXPECT_TRUE(mask.all_active());

  mask.set_all(false);
  expect_counts_match_scan(mask);
  EXPECT_EQ(mask.active_count(), 0);
  mask.set_all(false);
  expect_counts_match_scan(mask);
  mask.set_all(true);
  expect_counts_match_scan(mask);
  EXPECT_TRUE(mask.all_active());

  // Copies carry the count, and the two masks then count independently.
  mask.set_active(0, false);
  EdgeMask copy(2);
  copy = mask;
  expect_counts_match_scan(copy);
  EXPECT_EQ(copy.active_count(), 5);
  copy.set_active(0, true);
  expect_counts_match_scan(copy);
  expect_counts_match_scan(mask);
  EXPECT_EQ(mask.active_count(), 5);

  const EdgeMask empty;
  expect_counts_match_scan(empty);
  EXPECT_TRUE(empty.all_active());
}

TEST(EdgeMask, CountsSurviveACheckpointRestore) {
  // A churned run's mask restored into a simulator whose own mask differs
  // (it has not run) keeps a count that matches its bits.
  const auto make = [] {
    auto sim = std::make_unique<core::Simulator>(
        core::scenarios::grid_single(4, 4));
    core::FaultSchedule churn;
    churn.set_random_churn({0.3, 0.2, {}});
    sim->set_faults(std::make_unique<core::FaultInjector>(std::move(churn)));
    return sim;
  };
  auto source = make();
  source->run(25);
  ASSERT_FALSE(source->edge_mask().all_active());
  std::stringstream checkpoint(std::ios::in | std::ios::out |
                               std::ios::binary);
  source->save_checkpoint(checkpoint);

  auto restored = make();
  ASSERT_TRUE(restored->edge_mask().all_active());
  restored->restore_checkpoint(checkpoint);
  expect_counts_match_scan(restored->edge_mask());
  EXPECT_EQ(restored->edge_mask().active_count(),
            source->edge_mask().active_count());

  // And it keeps counting: both runs mutate their masks identically.
  source->run(10);
  restored->run(10);
  expect_counts_match_scan(restored->edge_mask());
  EXPECT_EQ(restored->edge_mask().active_count(),
            source->edge_mask().active_count());
}

TEST(EdgeMask, OutOfRangeRejected) {
  EdgeMask mask(2);
  EXPECT_THROW(mask.set_active(2, false), ContractViolation);
  EXPECT_THROW(mask.set_active(-1, false), ContractViolation);
}

}  // namespace
}  // namespace lgg::graph
