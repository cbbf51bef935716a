#include "flow/flow_network.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/require.hpp"
#include "common/rng.hpp"

namespace lgg::flow {
namespace {

TEST(FlowNetwork, ArcPairsAreTwinned) {
  FlowNetwork net(3);
  const ArcId a = net.add_arc(0, 1, 5);
  EXPECT_EQ(a, 0);
  EXPECT_EQ(net.to(a), 1);
  EXPECT_EQ(net.from(a), 0);
  EXPECT_EQ(net.to(a ^ 1), 0);
  EXPECT_EQ(net.capacity(a), 5);
  EXPECT_EQ(net.capacity(a ^ 1), 0);
  EXPECT_EQ(net.residual(a), 5);
  EXPECT_EQ(net.residual(a ^ 1), 0);
}

TEST(FlowNetwork, PushMovesResidualCapacity) {
  FlowNetwork net(2);
  const ArcId a = net.add_arc(0, 1, 4);
  net.push(a, 3);
  EXPECT_EQ(net.residual(a), 1);
  EXPECT_EQ(net.residual(a ^ 1), 3);
  EXPECT_EQ(net.flow(a), 3);
  net.push(a ^ 1, 2);  // undo 2 units
  EXPECT_EQ(net.flow(a), 1);
}

TEST(FlowNetwork, PushBeyondResidualRejected) {
  FlowNetwork net(2);
  const ArcId a = net.add_arc(0, 1, 2);
  EXPECT_THROW(net.push(a, 3), ContractViolation);
  EXPECT_THROW(net.push(a, -1), ContractViolation);
}

TEST(FlowNetwork, OutArcsContainResidualTwins) {
  FlowNetwork net(3);
  net.add_arc(0, 1, 1);
  net.add_arc(1, 2, 1);
  EXPECT_EQ(net.out_arcs(0).size(), 1u);
  EXPECT_EQ(net.out_arcs(1).size(), 2u);  // twin of (0,1) + forward (1,2)
  EXPECT_EQ(net.out_arcs(2).size(), 1u);  // twin of (1,2)
}

TEST(FlowNetwork, ResetFlowRestoresCapacities) {
  FlowNetwork net(2);
  const ArcId a = net.add_arc(0, 1, 7);
  net.push(a, 7);
  net.reset_flow();
  EXPECT_EQ(net.residual(a), 7);
  EXPECT_EQ(net.flow(a), 0);
}

TEST(FlowNetwork, SetCapacityResetsArcPair) {
  FlowNetwork net(2);
  const ArcId a = net.add_arc(0, 1, 2);
  net.push(a, 2);
  net.set_capacity(a, 9);
  EXPECT_EQ(net.capacity(a), 9);
  EXPECT_EQ(net.residual(a), 9);
  EXPECT_EQ(net.flow(a), 0);
  EXPECT_THROW(net.set_capacity(a ^ 1, 1), ContractViolation);
}

TEST(FlowNetwork, ExcessTracksImbalance) {
  FlowNetwork net(3);
  const ArcId a = net.add_arc(0, 1, 5);
  const ArcId b = net.add_arc(1, 2, 5);
  net.push(a, 3);
  net.push(b, 1);
  EXPECT_EQ(net.excess_at(1), 2);   // 3 in, 1 out
  EXPECT_EQ(net.excess_at(0), -3);
  EXPECT_EQ(net.excess_at(2), 1);
  EXPECT_EQ(net.flow_value(0), 3);
}

/// Random arcs with parallel pairs and self-loops.
std::vector<ArcSpec> random_arcs(Rng& rng, NodeId n, int m) {
  std::vector<ArcSpec> arcs;
  for (int i = 0; i < m; ++i) {
    arcs.push_back({static_cast<NodeId>(rng.uniform_int(0, n - 1)),
                    static_cast<NodeId>(rng.uniform_int(0, n - 1)),
                    rng.uniform_int(0, 9)});
  }
  return arcs;
}

void expect_same_network(const FlowNetwork& a, const FlowNetwork& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.arc_count(), b.arc_count());
  for (ArcId x = 0; x < a.arc_count(); ++x) {
    EXPECT_EQ(a.to(x), b.to(x));
    EXPECT_EQ(a.from(x), b.from(x));
    EXPECT_EQ(a.capacity(x), b.capacity(x));
    EXPECT_EQ(a.residual(x), b.residual(x));
  }
  for (NodeId v = 0; v < a.node_count(); ++v) {
    const auto oa = a.out_arcs(v);
    const auto ob = b.out_arcs(v);
    EXPECT_EQ(std::vector<ArcId>(oa.begin(), oa.end()),
              std::vector<ArcId>(ob.begin(), ob.end()));
  }
}

TEST(FlowNetwork, ArcListBuildEqualsAddArcInOrder) {
  Rng rng(11);
  for (int round = 0; round < 20; ++round) {
    const auto n = static_cast<NodeId>(rng.uniform_int(1, 9));
    const std::vector<ArcSpec> arcs = random_arcs(rng, n, 30);
    FlowNetwork appended(n);
    for (const ArcSpec& a : arcs) appended.add_arc(a.from, a.to, a.cap);
    expect_same_network(FlowNetwork(n, arcs), appended);
  }
}

TEST(FlowNetwork, AddArcAfterBuildAppendsAndKeepsFlow) {
  Rng rng(12);
  for (int round = 0; round < 20; ++round) {
    const auto n = static_cast<NodeId>(rng.uniform_int(1, 9));
    std::vector<ArcSpec> arcs = random_arcs(rng, n, 20);
    FlowNetwork built(n, arcs);
    FlowNetwork reference(n);
    for (const ArcSpec& a : arcs) reference.add_arc(a.from, a.to, a.cap);
    // Interleave pushes with appends: each append must leave every earlier
    // residual, and every node's earlier arc order, where it was.
    for (int i = 0; i < 40; ++i) {
      const auto a =
          static_cast<ArcId>(rng.uniform_int(0, built.arc_count() - 1));
      const Cap amount = rng.uniform_int(0, built.residual(a));
      built.push(a, amount);
      reference.push(a, amount);
      const ArcSpec extra = random_arcs(rng, n, 1).front();
      EXPECT_EQ(built.add_arc(extra.from, extra.to, extra.cap),
                reference.add_arc(extra.from, extra.to, extra.cap));
    }
    expect_same_network(built, reference);
    const NodeId fresh = built.add_node();
    EXPECT_EQ(fresh, reference.add_node());
    built.add_arc(fresh, 0, 3);
    reference.add_arc(fresh, 0, 3);
    expect_same_network(built, reference);
  }
}

TEST(FlowNetwork, ExcessEqualsForwardArcBalance) {
  Rng rng(13);
  const NodeId n = 7;
  FlowNetwork net(n, random_arcs(rng, n, 40));
  for (int i = 0; i < 60; ++i) {
    const auto a = static_cast<ArcId>(rng.uniform_int(0, net.arc_count() - 1));
    net.push(a, rng.uniform_int(0, net.residual(a)));
  }
  for (NodeId v = 0; v < n; ++v) {
    Cap balance = 0;
    for (ArcId a = 0; a < net.arc_count(); a += 2) {
      if (net.to(a) == v) balance += net.flow(a);
      if (net.from(a) == v) balance -= net.flow(a);
    }
    EXPECT_EQ(net.excess_at(v), balance) << "node " << v;
  }
}

TEST(FlowNetwork, RestoreFlowsReroutesSavedFlowsOverNewCapacities) {
  Rng rng(14);
  const NodeId n = 6;
  FlowNetwork net(n, random_arcs(rng, n, 30));
  for (int i = 0; i < 40; ++i) {
    const auto a = static_cast<ArcId>(rng.uniform_int(0, net.arc_count() - 1));
    net.push(a, rng.uniform_int(0, net.residual(a)));
  }
  const FlowNetwork pushed = net;
  const std::vector<Cap> flows = net.arc_flows();
  ASSERT_EQ(flows.size(), static_cast<std::size_t>(net.arc_count() / 2));
  // Raise every capacity, which clears the flows, then route them again.
  for (ArcId a = 0; a < net.arc_count(); a += 2) {
    EXPECT_EQ(flows[static_cast<std::size_t>(a / 2)], pushed.flow(a));
    net.set_capacity(a, pushed.capacity(a) + 2);
    EXPECT_EQ(net.flow(a), 0);
  }
  net.restore_flows(flows);
  for (ArcId a = 0; a < net.arc_count(); ++a) {
    EXPECT_EQ(net.flow(a), pushed.flow(a)) << "arc " << a;
    EXPECT_EQ(net.capacity(a), (a & 1) == 0 ? pushed.capacity(a) + 2 : 0);
  }
  net.reset_flow();
  for (ArcId a = 0; a < net.arc_count(); ++a) EXPECT_EQ(net.flow(a), 0);
}

TEST(FlowNetwork, NegativeCapacityRejected) {
  FlowNetwork net(2);
  EXPECT_THROW(net.add_arc(0, 1, -1), ContractViolation);
  const ArcSpec bad[] = {{0, 1, -1}};
  EXPECT_THROW(FlowNetwork(2, bad), ContractViolation);
}

}  // namespace
}  // namespace lgg::flow
