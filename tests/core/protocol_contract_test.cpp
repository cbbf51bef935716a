// check_transmission_contract: every violation class is detected, and
// valid sets pass.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "core/protocol.hpp"
#include "core/scenarios.hpp"
#include "graph/generators.hpp"

namespace lgg::core {
namespace {

struct Fixture {
  Fixture()
      : net(scenarios::fat_path(3, 2, 1, 2)),
        incidence(net.topology()),
        mask(net.topology().edge_count()),
        queue({3, 2, 0}),
        declared(queue) {}

  StepView view() {
    return StepView{&net, &incidence, &mask, queue, declared, 0, 0};
  }

  SdNetwork net;
  graph::CsrIncidence incidence;
  graph::EdgeMask mask;
  std::vector<PacketCount> queue;
  std::vector<PacketCount> declared;
};

TEST(TransmissionContract, ValidSetPasses) {
  Fixture fx;
  // fat_path(3,2): edges 0,1 join nodes 0-1; edges 2,3 join 1-2.
  const std::vector<Transmission> txs = {{0, 0, 1}, {2, 1, 2}, {3, 1, 2}};
  EXPECT_EQ(check_transmission_contract(fx.view(), txs), "");
}

TEST(TransmissionContract, EmptySetPasses) {
  Fixture fx;
  EXPECT_EQ(check_transmission_contract(fx.view(), {}), "");
}

TEST(TransmissionContract, InvalidEdgeIdCaught) {
  Fixture fx;
  const std::vector<Transmission> txs = {{99, 0, 1}};
  EXPECT_NE(check_transmission_contract(fx.view(), txs).find("invalid edge"),
            std::string::npos);
}

TEST(TransmissionContract, EndpointMismatchCaught) {
  Fixture fx;
  // Edge 0 joins 0-1, not 0-2.
  const std::vector<Transmission> txs = {{0, 0, 2}};
  EXPECT_NE(check_transmission_contract(fx.view(), txs)
                .find("do not match"),
            std::string::npos);
}

TEST(TransmissionContract, InactiveEdgeCaught) {
  Fixture fx;
  fx.mask.set_active(0, false);
  const std::vector<Transmission> txs = {{0, 0, 1}};
  EXPECT_NE(check_transmission_contract(fx.view(), txs).find("inactive"),
            std::string::npos);
}

TEST(TransmissionContract, DuplicateDirectionCaught) {
  Fixture fx;
  const std::vector<Transmission> txs = {{0, 0, 1}, {0, 0, 1}};
  EXPECT_NE(check_transmission_contract(fx.view(), txs)
                .find("twice in the same direction"),
            std::string::npos);
}

TEST(TransmissionContract, OppositeDirectionsOnOneEdgeAllowed) {
  // The contract forbids duplicate *directions*; opposite directions on
  // one link are resolved later by the link-conflict policy.
  Fixture fx;
  fx.queue = {3, 2, 0};
  const std::vector<Transmission> txs = {{0, 0, 1}, {0, 1, 0}};
  EXPECT_EQ(check_transmission_contract(fx.view(), txs), "");
}

TEST(TransmissionContract, BudgetOverrunCaught) {
  Fixture fx;
  fx.queue = {1, 0, 0};
  fx.declared = fx.queue;
  // Node 0 holds 1 packet but sends 2.
  const std::vector<Transmission> txs = {{0, 0, 1}, {1, 0, 1}};
  EXPECT_NE(check_transmission_contract(fx.view(), txs)
                .find("holds only"),
            std::string::npos);
}

TEST(TransmissionContract, MessagesAreExact) {
  Fixture fx;
  fx.queue = {1, 0, 0};
  const auto check = [&fx](const std::vector<Transmission>& txs) {
    return check_transmission_contract(fx.view(), txs);
  };
  EXPECT_EQ(check({{99, 0, 1}}), "invalid edge id 99");
  EXPECT_EQ(check({{0, 0, 2}}), "transmission endpoints do not match edge 0");
  EXPECT_EQ(check({{0, 0, 1}, {0, 0, 1}}),
            "edge 0 used twice in the same direction");
  EXPECT_EQ(check({{0, 0, 1}, {1, 0, 1}}),
            "node 0 sends 2 packets but holds only 1");
  fx.mask.set_active(0, false);
  EXPECT_EQ(check({{0, 0, 1}}), "transmission on inactive edge 0");
}

TEST(TransmissionContract, ReusedScratchIsolatesCalls) {
  // One scratch across calls, crossing the epoch wraparound: a direction
  // used by an earlier call must not count against a later one.
  Fixture fx;
  const std::vector<Transmission> txs = {{0, 0, 1}, {2, 1, 2}, {3, 1, 2}};
  ContractScratch scratch;
  scratch.current = std::numeric_limits<std::uint32_t>::max() - 1;
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(check_transmission_contract(fx.view(), txs, scratch), "");
  }
  const std::vector<Transmission> twice = {{2, 1, 2}, {2, 1, 2}};
  EXPECT_EQ(check_transmission_contract(fx.view(), twice, scratch),
            "edge 2 used twice in the same direction");
  EXPECT_EQ(check_transmission_contract(fx.view(), txs, scratch), "");
}

}  // namespace
}  // namespace lgg::core
