#include "core/simulator.hpp"

#include <gtest/gtest.h>

#include "core/scenarios.hpp"
#include "graph/generators.hpp"
#include "support/test_helpers.hpp"

namespace lgg::core {
namespace {

SimulatorOptions checked(std::uint64_t seed = 7) {
  SimulatorOptions options;
  options.seed = seed;
  options.check_contract = true;
  return options;
}

TEST(Simulator, SingleStepOnUnitPath) {
  // Path 0-1: inject 1 at node 0; gradient 1 > 0 sends it; sink extracts.
  Simulator sim(scenarios::single_path(2), checked());
  const StepStats stats = sim.step();
  EXPECT_EQ(stats.injected, 1);
  EXPECT_EQ(stats.sent, 1);
  EXPECT_EQ(stats.delivered, 1);
  EXPECT_EQ(stats.lost, 0);
  EXPECT_EQ(stats.extracted, 1);
  EXPECT_EQ(sim.total_packets(), 0);
  EXPECT_EQ(sim.now(), 1);
}

TEST(Simulator, PacketsPropagateAlongPath) {
  Simulator sim(scenarios::single_path(4), checked());
  sim.run(100);
  // Steady state: pipeline full but bounded; conservation holds.
  EXPECT_TRUE(sim.conserves_packets());
  EXPECT_LE(sim.max_queue(), 4);
  EXPECT_GT(sim.cumulative().extracted, 0);
}

TEST(Simulator, ConservationUnderLosses) {
  Simulator sim(scenarios::fat_path(5, 2, 1, 2), checked());
  sim.set_loss(std::make_unique<BernoulliLoss>(0.3));
  sim.run(500);
  EXPECT_TRUE(sim.conserves_packets());
  EXPECT_GT(sim.cumulative().lost, 0);
}

TEST(Simulator, InitialQueuesCountInConservation) {
  Simulator sim(scenarios::single_path(3), checked());
  sim.set_initial_queue(1, 50);
  EXPECT_EQ(sim.total_packets(), 50);
  sim.run(200);
  EXPECT_TRUE(sim.conserves_packets());
  EXPECT_THROW(sim.set_initial_queue(1, 1), ContractViolation);
}

TEST(Simulator, DeterministicGivenSeed) {
  const auto run_once = [](std::uint64_t seed) {
    Simulator sim(scenarios::random_unsaturated(12, 40, 2, 2, 5),
                  checked(seed));
    sim.set_loss(std::make_unique<BernoulliLoss>(0.1));
    sim.run(200);
    return std::vector<PacketCount>(sim.queues().begin(),
                                    sim.queues().end());
  };
  EXPECT_EQ(run_once(11), run_once(11));
  EXPECT_NE(run_once(11), run_once(12));
}

TEST(Simulator, NetworkStateMatchesDefinition1) {
  Simulator sim(scenarios::single_path(3), checked());
  sim.set_initial_queue(0, 3);
  sim.set_initial_queue(1, 4);
  EXPECT_DOUBLE_EQ(sim.network_state(), 9.0 + 16.0);
  EXPECT_EQ(sim.max_queue(), 4);
}

TEST(Simulator, SinkExtractionCappedByOutRate) {
  // out(d) = 1 but 5 packets dumped on the sink: extraction is 1 per step.
  SdNetwork net = scenarios::single_path(2, 1, 1);
  Simulator sim(net, checked());
  sim.set_initial_queue(1, 5);
  const StepStats stats = sim.step();
  EXPECT_EQ(stats.extracted, 1);
}

TEST(Simulator, SnapshotExtractionBasisMatchesPaperReading) {
  // Sink starts empty; 1 packet arrives during the step.  Snapshot basis
  // extracts min(out, q_t) = 0 because the step-start queue was empty.
  SimulatorOptions options = checked();
  options.extraction_basis = ExtractionBasis::kSnapshot;
  Simulator sim(scenarios::single_path(2), options);
  const StepStats stats = sim.step();
  EXPECT_EQ(stats.delivered, 1);
  EXPECT_EQ(stats.extracted, 0);
  EXPECT_EQ(sim.total_packets(), 1);
  // Next step the packet is in the snapshot and leaves.
  const StepStats stats2 = sim.step();
  EXPECT_EQ(stats2.extracted, 1);
}

TEST(Simulator, MetricsRecorderTracksTrajectory) {
  Simulator sim(scenarios::single_path(3), checked());
  MetricsRecorder recorder(/*record_queue_traces=*/true);
  sim.run(10, &recorder);
  EXPECT_EQ(recorder.size(), 10u);
  EXPECT_EQ(recorder.queue_traces().size(), 10u);
  EXPECT_EQ(recorder.queue_traces()[0].size(), 3u);
  // P_t is consistent with the recorded queues.
  for (std::size_t t = 0; t < recorder.size(); ++t) {
    double state = 0;
    for (const PacketCount q : recorder.queue_traces()[t]) {
      state += static_cast<double>(q) * static_cast<double>(q);
    }
    EXPECT_DOUBLE_EQ(recorder.network_state()[t], state);
  }
}

TEST(Simulator, PseudoSourceInjectsAtMostRate) {
  SdNetwork net = scenarios::single_path(2, 3, 3);
  Simulator sim(net, checked());
  sim.set_arrival(std::make_unique<BernoulliArrival>(0.5));
  for (int i = 0; i < 50; ++i) {
    const StepStats stats = sim.step();
    EXPECT_GE(stats.injected, 0);
    EXPECT_LE(stats.injected, 3);
  }
}

TEST(Simulator, SchedulerSuppressionCountsAndConserves) {
  Simulator sim(scenarios::grid_flow(3, 4), checked());
  sim.set_scheduler(std::make_unique<GreedyMatchingScheduler>());
  sim.run(300);
  EXPECT_TRUE(sim.conserves_packets());
  EXPECT_GT(sim.cumulative().suppressed, 0);
}

TEST(Simulator, DynamicsChangeTopologyVersion) {
  Simulator sim(scenarios::fat_path(3, 3, 1, 2), checked());
  FaultSchedule churn;
  churn.set_random_churn({0.5, 0.5, {}});
  sim.set_faults(std::make_unique<FaultInjector>(std::move(churn)));
  MetricsRecorder recorder;
  sim.run(50, &recorder);
  bool changed = false;
  for (const StepStats& s : recorder.steps()) {
    changed = changed || s.topology_changed;
  }
  EXPECT_TRUE(changed);
  EXPECT_TRUE(sim.conserves_packets());
}

TEST(Simulator, LyingDeclarationsStayLegalAndConserve) {
  SdNetwork net = scenarios::generalize(scenarios::grid_flow(2, 4), 5);
  SimulatorOptions options = checked();
  options.declaration_policy = DeclarationPolicy::kDeclareR;
  options.extraction_policy = ExtractionPolicy::kRetentive;
  Simulator sim(net, options);
  sim.run(300);
  EXPECT_TRUE(sim.conserves_packets());
}

TEST(Simulator, LinkConflictSuppressesLoserWithoutLoss) {
  // Two-node network where both ends lie low (declare 0) and hold packets:
  // both directions get scheduled; the link carries only the winner and
  // the loser's packet stays queued (not lost).
  SdNetwork net(graph::make_path(2));
  net.set_generalized(0, 1, 0, /*retention=*/10);
  net.set_generalized(1, 0, 1, /*retention=*/10);
  SimulatorOptions options = checked();
  options.declaration_policy = DeclarationPolicy::kDeclareZero;
  Simulator sim(net, options);
  sim.set_initial_queue(0, 5);
  sim.set_initial_queue(1, 5);
  const StepStats stats = sim.step();
  EXPECT_EQ(stats.conflicted, 1);
  EXPECT_EQ(stats.lost, 0);
  EXPECT_EQ(stats.sent, 1);
  EXPECT_EQ(stats.delivered, 1);
  EXPECT_TRUE(sim.conserves_packets());
}

TEST(Simulator, ByzantineDeclarationsKeepTheConflictScanOnATruthfulRun) {
  // LGG under truthful declarations never proposes both directions of a
  // link, so the step skips the conflict scan.  A Byzantine overwrite ends
  // that guarantee: node 1 holds 5 and declares 0, so node 0 (holding 4
  // after its injection) sends to it while it sends to node 0, and the
  // scan must run and resolve the pair.
  SimulatorOptions options = checked();
  ASSERT_EQ(options.declaration_policy, DeclarationPolicy::kTruthful);
  Simulator sim(scenarios::single_path(2, 1, 1), options);
  FaultEvent byzantine;
  byzantine.kind = FaultKind::kByzantine;
  byzantine.node = 1;
  byzantine.declare = 0;
  FaultSchedule schedule;
  schedule.add(byzantine);
  sim.set_faults(std::make_unique<FaultInjector>(schedule, 1));
  sim.set_initial_queue(0, 3);
  sim.set_initial_queue(1, 5);
  const StepStats stats = sim.step();
  EXPECT_EQ(stats.proposed, 2);
  EXPECT_EQ(stats.conflicted, 1);
  EXPECT_EQ(stats.sent, 1);
  EXPECT_EQ(stats.lost, 0);
  // 1→0 realizes the larger true drop (5 − 4 against 4 − 5); the sink
  // then extracts one.
  EXPECT_EQ(sim.queues()[0], 5);
  EXPECT_EQ(sim.queues()[1], 3);
  EXPECT_TRUE(sim.conserves_packets());
}

TEST(Simulator, AllowBothPolicyLetsBothDirectionsFire) {
  SdNetwork net(graph::make_path(2));
  net.set_generalized(0, 1, 0, 10);
  net.set_generalized(1, 0, 1, 10);
  SimulatorOptions options = checked();
  options.declaration_policy = DeclarationPolicy::kDeclareZero;
  options.link_conflict = LinkConflictPolicy::kAllowBoth;
  Simulator sim(net, options);
  sim.set_initial_queue(0, 5);
  sim.set_initial_queue(1, 5);
  const StepStats stats = sim.step();
  EXPECT_EQ(stats.conflicted, 0);
  EXPECT_EQ(stats.lost, 0);
  EXPECT_EQ(stats.delivered, 2);
}

TEST(Simulator, RunWithNegativeStepsRejected) {
  Simulator sim(scenarios::single_path(2), checked());
  EXPECT_THROW(sim.run(-1), ContractViolation);
}

TEST(Simulator, EmptyRolesRejectedAtConstruction) {
  SdNetwork net(graph::make_path(2));
  EXPECT_THROW(Simulator(net, checked()), ContractViolation);
}

}  // namespace
}  // namespace lgg::core
