#include "baselines/protocol_registry.hpp"

#include <gtest/gtest.h>

#include "baselines/backpressure.hpp"
#include "baselines/hot_potato.hpp"
#include "baselines/random_walk.hpp"
#include "core/scenarios.hpp"
#include "core/simulator.hpp"
#include "support/test_helpers.hpp"

namespace lgg::baselines {
namespace {

core::SimulatorOptions checked(std::uint64_t seed = 3) {
  core::SimulatorOptions options;
  options.seed = seed;
  options.check_contract = true;
  return options;
}

TEST(ProtocolRegistry, EveryNameConstructs) {
  for (const auto name : protocol_names()) {
    const auto protocol = make_protocol(name);
    ASSERT_NE(protocol, nullptr) << name;
    EXPECT_FALSE(protocol->name().empty());
  }
}

TEST(ProtocolRegistry, UnknownNameThrows) {
  EXPECT_THROW(make_protocol("definitely-not-a-protocol"),
               ContractViolation);
}

class AllProtocols : public ::testing::TestWithParam<std::string_view> {};

TEST_P(AllProtocols, ContractAndConservationOnUnsaturatedGrid) {
  core::Simulator sim(core::scenarios::grid_flow(3, 4), checked(),
                      make_protocol(GetParam()));
  sim.run(300);
  EXPECT_TRUE(sim.conserves_packets());
}

TEST_P(AllProtocols, ConservationUnderLossAndChurn) {
  core::Simulator sim(core::scenarios::fat_path(4, 3, 2, 3), checked(9),
                      make_protocol(GetParam()));
  sim.set_loss(std::make_unique<core::BernoulliLoss>(0.2));
  core::FaultSchedule churn;
  churn.set_random_churn({0.05, 0.5, {}});
  sim.set_faults(std::make_unique<core::FaultInjector>(std::move(churn)));
  sim.run(400);
  EXPECT_TRUE(sim.conserves_packets());
}

TEST_P(AllProtocols, DeliversSomethingOnEasyNetwork) {
  core::Simulator sim(core::scenarios::fat_path(3, 2, 1, 2), checked(),
                      make_protocol(GetParam()));
  sim.run(200);
  EXPECT_GT(sim.cumulative().extracted, 0) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Registry, AllProtocols,
    ::testing::Values("lgg", "lgg_random_tiebreak", "flow_routing",
                      "backpressure", "hot_potato", "random_walk"),
    [](const ::testing::TestParamInfo<std::string_view>& info) {
      return std::string(info.param);
    });

TEST(Backpressure, ThresholdSuppressesSmallGradients) {
  // Gradient exactly 1 everywhere: threshold 1 blocks all transmissions.
  core::Simulator strict(core::scenarios::single_path(3), checked(),
                         std::make_unique<BackpressureProtocol>(1));
  const auto stats = strict.step();
  EXPECT_EQ(stats.sent, 0);
  core::Simulator classic(core::scenarios::single_path(3), checked(),
                          std::make_unique<BackpressureProtocol>(0));
  EXPECT_GT(classic.step().sent, 0);
}

TEST(HotPotato, PushesTowardSinkRegardlessOfQueues) {
  // Sink-adjacent node is congested; hot potato still forwards into it.
  core::Simulator sim(core::scenarios::single_path(3), checked(),
                      std::make_unique<HotPotatoProtocol>());
  sim.set_initial_queue(1, 100);
  const auto stats = sim.step();
  // Node 0 (1 packet after injection) forwards to node 1 even though node
  // 1 has 100 packets — LGG would hold it.
  EXPECT_GE(stats.sent, 1);
  EXPECT_TRUE(sim.conserves_packets());
}

TEST(HotPotato, LggHoldsWhereHotPotatoPushes) {
  core::Simulator sim(core::scenarios::single_path(3), checked());
  sim.set_initial_queue(1, 100);
  const auto stats = sim.step();
  // LGG: node 0 queue 1 < node 1 queue 100 -> no send from 0; node 1
  // sends to both neighbours (0 and 2).
  EXPECT_EQ(stats.sent, 2);
}

TEST(RandomWalk, EventuallyDeliversOnAPath) {
  core::Simulator sim(core::scenarios::single_path(4), checked(),
                      std::make_unique<RandomWalkProtocol>());
  sim.run(500);
  EXPECT_GT(sim.cumulative().extracted, 0);
  EXPECT_TRUE(sim.conserves_packets());
}

}  // namespace
}  // namespace lgg::baselines
