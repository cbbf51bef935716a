#include "baselines/flow_routing.hpp"

#include <gtest/gtest.h>

#include "core/scenarios.hpp"
#include "core/simulator.hpp"
#include "support/test_helpers.hpp"

namespace lgg::baselines {
namespace {

using core::scenarios::fat_path;
using core::scenarios::grid_flow;
using core::scenarios::single_path;

core::SimulatorOptions checked() {
  core::SimulatorOptions options;
  options.check_contract = true;
  return options;
}

TEST(FlowRouting, DeliversAtFullRateOnSaturatedPath) {
  // in = 1 = capacity: the flow router drains exactly the arrival rate.
  core::Simulator sim(single_path(4), checked(),
                      std::make_unique<FlowRoutingProtocol>());
  sim.run(100);
  EXPECT_TRUE(sim.conserves_packets());
  // After the 3-hop pipeline fills, a packet is extracted every step.
  EXPECT_GE(sim.cumulative().extracted, 100 - 4);
  EXPECT_LE(sim.max_queue(), 2);
}

TEST(FlowRouting, UsesParallelPathsOfAFatPath) {
  auto protocol = std::make_unique<FlowRoutingProtocol>();
  FlowRoutingProtocol* raw = protocol.get();
  core::Simulator sim(fat_path(3, 3, 3, 3), checked(), std::move(protocol));
  core::MetricsRecorder recorder;
  sim.run(200, &recorder);
  EXPECT_EQ(raw->path_count(), 3u);  // one unit path per parallel lane
  EXPECT_TRUE(sim.conserves_packets());
  EXPECT_EQ(core::assess_stability(recorder.network_state()).verdict,
            core::Verdict::kStable);
}

TEST(FlowRouting, PlanMatchesFlowValueOnGrid) {
  auto protocol = std::make_unique<FlowRoutingProtocol>();
  FlowRoutingProtocol* raw = protocol.get();
  core::Simulator sim(grid_flow(3, 4, 1, 2), checked(), std::move(protocol));
  sim.step();
  // Arrival rate 3 is feasible: the plan carries one unit path per source.
  EXPECT_EQ(raw->path_count(), 3u);
}

TEST(FlowRouting, StableUnderSaturation) {
  const auto verdict = [] {
    core::Simulator sim(single_path(5, 1, 1), checked(),
                        std::make_unique<FlowRoutingProtocol>());
    core::MetricsRecorder recorder;
    sim.run(400, &recorder);
    return core::assess_stability(recorder.network_state()).verdict;
  }();
  EXPECT_EQ(verdict, core::Verdict::kStable);
}

TEST(FlowRouting, RebuildsPlanAfterTopologyChange) {
  auto protocol = std::make_unique<FlowRoutingProtocol>();
  FlowRoutingProtocol* raw = protocol.get();
  core::Simulator sim(fat_path(2, 2, 1, 2), checked(), std::move(protocol));
  core::FaultSchedule churn;
  churn.set_random_churn({1.0, 1.0, {}});
  sim.set_faults(std::make_unique<core::FaultInjector>(std::move(churn)));
  sim.step();  // all edges dropped
  EXPECT_EQ(raw->path_count(), 0u);
  sim.step();  // all edges restored
  EXPECT_GT(raw->path_count(), 0u);
  EXPECT_TRUE(sim.conserves_packets());
}

}  // namespace
}  // namespace lgg::baselines
