#include "graph/multigraph.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/require.hpp"

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

TEST(EdgeMask, OutOfRangeRejected) {
  EdgeMask mask(2);
  EXPECT_THROW(mask.set_active(2, false), ContractViolation);
  EXPECT_THROW(mask.set_active(-1, false), ContractViolation);
}

}  // namespace
}  // namespace lgg::graph
