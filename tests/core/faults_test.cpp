#include "core/faults.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <vector>

#include "common/require.hpp"
#include "core/scenarios.hpp"
#include "core/simulator.hpp"

namespace lgg::core {
namespace {

TEST(FaultSpec, ParsesEveryClauseKind) {
  const FaultSchedule s = parse_fault_spec(
      "crash:node=3,at=100,for=50,mode=freeze;"
      "sink_outage:node=5,at=200,for=30;"
      "surge:node=0,at=10,for=5,extra=4;"
      "byzantine:node=2,at=0,for=1000,declare=0;"
      "random_crashes:p=0.001,down=20..50,mode=freeze");
  ASSERT_EQ(s.events().size(), 4u);
  EXPECT_EQ(s.events()[0].kind, FaultKind::kCrash);
  EXPECT_EQ(s.events()[0].node, 3);
  EXPECT_EQ(s.events()[0].at, 100);
  EXPECT_EQ(s.events()[0].duration, 50);
  EXPECT_EQ(s.events()[0].mode, CrashMode::kFreeze);
  EXPECT_EQ(s.events()[1].kind, FaultKind::kSinkOutage);
  EXPECT_EQ(s.events()[2].extra, 4);
  EXPECT_EQ(s.events()[3].declare, 0);
  EXPECT_DOUBLE_EQ(s.random_crashes().p_per_step, 0.001);
  EXPECT_EQ(s.random_crashes().min_down, 20);
  EXPECT_EQ(s.random_crashes().max_down, 50);
  EXPECT_EQ(s.random_crashes().mode, CrashMode::kFreeze);
}

TEST(FaultSpec, DefaultsDurationToForever) {
  const FaultSchedule s = parse_fault_spec("crash:node=1");
  ASSERT_EQ(s.events().size(), 1u);
  EXPECT_EQ(s.events()[0].duration, -1);
  EXPECT_EQ(s.events()[0].at, 0);
}

TEST(FaultSpec, RejectsMalformedClauses) {
  EXPECT_THROW(parse_fault_spec(""), ContractViolation);
  EXPECT_THROW(parse_fault_spec("crash:at=3"), ContractViolation);  // no node
  EXPECT_THROW(parse_fault_spec("crash:node=x"), ContractViolation);
  EXPECT_THROW(parse_fault_spec("crash:node=1,for=0"), ContractViolation);
  EXPECT_THROW(parse_fault_spec("crash:node=1,mode=melt"), ContractViolation);
  EXPECT_THROW(parse_fault_spec("frobnicate:node=1"), ContractViolation);
  EXPECT_THROW(parse_fault_spec("surge:node=1"), ContractViolation);  // extra
  EXPECT_THROW(parse_fault_spec("byzantine:node=1"), ContractViolation);
  EXPECT_THROW(parse_fault_spec("random_crashes:p=1.5"), ContractViolation);
  EXPECT_THROW(parse_fault_spec("random_crashes:p=0.1,down=5..2"),
               ContractViolation);
  EXPECT_THROW(parse_fault_spec("crash:node"), ContractViolation);
}

TEST(FaultSpec, RoundTripsThroughToString) {
  const std::string spec =
      "crash:node=3,at=100,for=50,mode=wipe;"
      "surge:node=0,at=10,for=5,extra=4;"
      "random_crashes:p=0.25,down=2..9,mode=freeze";
  const FaultSchedule a = parse_fault_spec(spec);
  const FaultSchedule b = parse_fault_spec(to_string(a));
  EXPECT_EQ(to_string(a), to_string(b));
  EXPECT_EQ(a.events().size(), b.events().size());
}

TEST(FaultSchedule, ValidateChecksRolesAndRange) {
  // single_path: node 0 is the source, the last node the sink.
  const SdNetwork net = scenarios::single_path(4, 1, 1);
  FaultSchedule bad_node;
  bad_node.add({FaultKind::kCrash, 99, 0, -1, CrashMode::kWipe, 0, 0});
  EXPECT_THROW(bad_node.validate(net), ContractViolation);

  FaultSchedule surge_non_source;
  surge_non_source.add(
      {FaultKind::kSourceSurge, 2, 0, -1, CrashMode::kWipe, 3, 0});
  EXPECT_THROW(surge_non_source.validate(net), ContractViolation);

  FaultSchedule outage_non_sink;
  outage_non_sink.add(
      {FaultKind::kSinkOutage, 1, 0, -1, CrashMode::kWipe, 0, 0});
  EXPECT_THROW(outage_non_sink.validate(net), ContractViolation);

  FaultSchedule ok;
  ok.add({FaultKind::kSourceSurge, 0, 0, 10, CrashMode::kWipe, 2, 0});
  EXPECT_NO_THROW(ok.validate(net));
}

TEST(FaultInjector, WipeDestroysQueueAndAccountsIt) {
  SdNetwork net = scenarios::single_path(4, 1, 1);
  SimulatorOptions options;
  options.seed = 7;
  Simulator sim(net, options);
  sim.set_initial_queue(1, 10);

  FaultSchedule schedule;
  schedule.add({FaultKind::kCrash, 1, 3, 5, CrashMode::kWipe, 0, 0});
  sim.set_faults(std::make_unique<FaultInjector>(schedule, 1));

  sim.run(20);
  EXPECT_GT(sim.cumulative().crash_wiped, 0);
  EXPECT_TRUE(sim.conserves_packets());
}

TEST(FaultInjector, FreezeKeepsPackets) {
  SdNetwork net = scenarios::single_path(4, 1, 1);
  SimulatorOptions options;
  options.seed = 7;
  Simulator sim(net, options);
  sim.set_initial_queue(1, 10);

  FaultSchedule schedule;
  schedule.add({FaultKind::kCrash, 1, 0, 5, CrashMode::kFreeze, 0, 0});
  sim.set_faults(std::make_unique<FaultInjector>(schedule, 1));

  sim.run(4);  // inside the outage window
  EXPECT_EQ(sim.cumulative().crash_wiped, 0);
  EXPECT_EQ(sim.queues()[1], 10);  // frozen, untouched
  EXPECT_TRUE(sim.conserves_packets());
  sim.run(30);  // recovery drains the thawed queue
  EXPECT_TRUE(sim.conserves_packets());
  EXPECT_LT(sim.queues()[1], 10);
}

TEST(FaultInjector, DownNodeNeitherInjectsNorExtracts) {
  SdNetwork net = scenarios::single_path(3, 2, 2);
  SimulatorOptions options;
  Simulator sim(net, options);

  FaultSchedule schedule;
  // Source down for the whole run: nothing ever enters the network.
  schedule.add({FaultKind::kCrash, 0, 0, -1, CrashMode::kWipe, 0, 0});
  sim.set_faults(std::make_unique<FaultInjector>(schedule, 1));
  sim.run(50);
  EXPECT_EQ(sim.cumulative().injected, 0);
  EXPECT_EQ(sim.total_packets(), 0);
  EXPECT_TRUE(sim.conserves_packets());
}

TEST(FaultInjector, SinkOutageStopsExtractionForTheWindow) {
  SdNetwork net = scenarios::single_path(3, 1, 1);
  const NodeId sink = 2;
  SimulatorOptions options;
  Simulator sim(net, options);

  FaultSchedule schedule;
  schedule.add({FaultKind::kSinkOutage, sink, 0, 10, CrashMode::kWipe, 0, 0});
  sim.set_faults(std::make_unique<FaultInjector>(schedule, 1));
  sim.run(10);
  EXPECT_EQ(sim.cumulative().extracted, 0);
  const PacketCount backlog = sim.total_packets();
  EXPECT_GT(backlog, 0);
  sim.run(40);  // outage over: the backlog drains
  EXPECT_GT(sim.cumulative().extracted, 0);
  EXPECT_LT(sim.total_packets(), backlog + 1);
  EXPECT_TRUE(sim.conserves_packets());
}

TEST(FaultInjector, SurgeInjectsExtraPackets) {
  SdNetwork net = scenarios::single_path(3, 1, 1);
  SimulatorOptions options;
  Simulator baseline(net, options);
  baseline.run(20);

  Simulator surged(net, options);
  FaultSchedule schedule;
  schedule.add({FaultKind::kSourceSurge, 0, 5, 10, CrashMode::kWipe, 3, 0});
  surged.set_faults(std::make_unique<FaultInjector>(schedule, 1));
  surged.run(20);
  EXPECT_EQ(surged.cumulative().injected,
            baseline.cumulative().injected + 10 * 3);
  EXPECT_TRUE(surged.conserves_packets());
}

TEST(FaultInjector, ByzantineDeclarationRepelsTraffic) {
  // On a path 0 -> 1 -> 2, node 1 declaring an enormous queue makes the
  // LGG gradient test q(0) > q'(1) false forever: nothing is ever sent,
  // wildly violating Def. 7's R-bound on honest declarations.
  SdNetwork net = scenarios::single_path(3, 1, 1);
  SimulatorOptions options;
  options.seed = 11;

  Simulator honest(net, options);
  honest.run(60);
  EXPECT_GT(honest.cumulative().delivered, 0);

  Simulator corrupted(net, options);
  FaultSchedule schedule;
  schedule.add(
      {FaultKind::kByzantine, 1, 0, -1, CrashMode::kWipe, 0, 1000000});
  corrupted.set_faults(std::make_unique<FaultInjector>(schedule, 1));
  corrupted.run(60);

  EXPECT_TRUE(corrupted.conserves_packets());
  EXPECT_EQ(corrupted.cumulative().delivered, 0);
  EXPECT_EQ(corrupted.queues()[0], corrupted.total_packets());
}

TEST(FaultInjector, RandomCrashesAreSeedDeterministic) {
  const SdNetwork net = scenarios::single_path(6, 2, 2);
  const auto run_once = [&](std::uint64_t fault_seed) {
    SimulatorOptions options;
    options.seed = 5;
    Simulator sim(net, options);
    FaultSchedule schedule;
    schedule.set_random_crashes({0.05, 2, 6, CrashMode::kWipe});
    sim.set_faults(std::make_unique<FaultInjector>(schedule, fault_seed));
    sim.run(200);
    EXPECT_TRUE(sim.conserves_packets());
    return std::vector<PacketCount>(sim.queues().begin(),
                                    sim.queues().end());
  };
  EXPECT_EQ(run_once(42), run_once(42));
  // Different fault seeds must not share the crash pattern forever; the
  // cumulative trajectories should differ.
  const auto a = run_once(1);
  const auto b = run_once(2);
  (void)a;
  (void)b;  // equality is possible but conservation must hold for both
}

TEST(FaultInjector, SetFaultsValidatesAgainstNetwork) {
  SdNetwork net = scenarios::single_path(3, 1, 1);
  SimulatorOptions options;
  Simulator sim(net, options);
  FaultSchedule bad;
  bad.add({FaultKind::kCrash, 77, 0, -1, CrashMode::kWipe, 0, 0});
  EXPECT_THROW(
      sim.set_faults(std::make_unique<FaultInjector>(bad, 1)),
      ContractViolation);
}

TEST(FaultInjector, StateRoundTripsThroughSaveLoad) {
  const SdNetwork net = scenarios::single_path(5, 2, 2);
  FaultSchedule schedule;
  schedule.set_random_crashes({0.2, 1, 4, CrashMode::kFreeze});

  FaultInjector a(schedule, 99);
  const auto no_wipe = [](NodeId) {};
  for (TimeStep t = 0; t < 50; ++t) a.begin_step(t, net, no_wipe);

  std::stringstream blob;
  a.save_state(blob);
  FaultInjector b(schedule, 0);  // different seed: state must come from blob
  b.size_to(net);
  b.load_state(blob);

  // Both injectors now evolve identically.
  for (TimeStep t = 50; t < 120; ++t) {
    a.begin_step(t, net, no_wipe);
    b.begin_step(t, net, no_wipe);
    for (NodeId v = 0; v < net.node_count(); ++v) {
      ASSERT_EQ(a.node_down(v), b.node_down(v)) << "t=" << t << " v=" << v;
    }
  }
}

TEST(FaultInjector, EventsFireAtTheirStepInScheduleOrder) {
  // The schedule lists its events out of step order.  Each step must fire
  // exactly the events starting at it, ties in schedule order, and an
  // injector restored mid-crash must report the same recoveries.
  const SdNetwork net = scenarios::grid_flow(2, 3);  // sources 0, 3
  FaultSchedule schedule;
  const auto edge_event = [](FaultKind kind, EdgeId e, TimeStep at) {
    FaultEvent ev;
    ev.kind = kind;
    ev.edge = e;
    ev.at = at;
    return ev;
  };
  const auto crash = [](NodeId v, TimeStep at, TimeStep duration) {
    FaultEvent ev;
    ev.kind = FaultKind::kCrash;
    ev.node = v;
    ev.at = at;
    ev.duration = duration;
    return ev;
  };
  const auto surge = [](NodeId v, TimeStep at) {
    FaultEvent ev;
    ev.kind = FaultKind::kSourceSurge;
    ev.node = v;
    ev.at = at;
    ev.duration = 3;
    ev.extra = 1;
    return ev;
  };
  schedule.add(edge_event(FaultKind::kEdgeRemove, 3, 5))
      .add(crash(2, 4, 3))
      .add(surge(3, 6))
      .add(edge_event(FaultKind::kEdgeRemove, 1, 5))
      .add(crash(0, 4, 2))
      .add(surge(0, 6))
      .add(edge_event(FaultKind::kEdgeAdd, 3, 8))
      .add(crash(1, 7, 1));
  schedule.validate(net);

  SdNetwork net_a = net;
  SdNetwork net_b = net;
  FaultInjector a(schedule);
  a.size_to(net_a);
  std::optional<FaultInjector> b;
  for (TimeStep t = 0; t < 12; ++t) {
    SCOPED_TRACE("t=" + std::to_string(t));
    TopologyDelta delta;
    std::vector<NodeId> wiped;
    const auto wipe = [&wiped](NodeId v) { wiped.push_back(v); };
    const bool churned = a.apply_churn(t, net_a, delta, wipe);
    const bool down_changed = a.begin_step(t, net_a, wipe);
    std::vector<EdgeId> edges;
    for (const auto& ec : delta.edges) edges.push_back(ec.edge);
    EXPECT_EQ(churned, t == 5 || t == 8);
    const std::vector<EdgeId> want_edges =
        t == 5 ? std::vector<EdgeId>{3, 1}
        : t == 8 ? std::vector<EdgeId>{3}
                 : std::vector<EdgeId>{};
    const std::vector<NodeId> want_wiped =
        t == 4 ? std::vector<NodeId>{2, 0}
        : t == 7 ? std::vector<NodeId>{1}
                 : std::vector<NodeId>{};
    const std::vector<NodeId> want_surging =
        t >= 6 && t < 9 ? std::vector<NodeId>{3, 0} : std::vector<NodeId>{};
    EXPECT_EQ(edges, want_edges);
    EXPECT_EQ(wiped, want_wiped);
    EXPECT_EQ(down_changed, t == 4 || t == 6 || t == 7 || t == 8);
    EXPECT_EQ(a.surging_sources(), want_surging);
    if (b.has_value()) {
      TopologyDelta delta_b;
      const auto no_wipe = [](NodeId) {};
      EXPECT_EQ(b->apply_churn(t, net_b, delta_b, no_wipe), churned);
      EXPECT_EQ(b->begin_step(t, net_b, no_wipe), down_changed);
      EXPECT_EQ(b->went_down(), a.went_down());
      EXPECT_EQ(b->came_up(), a.came_up());
      EXPECT_EQ(b->surging_sources(), a.surging_sources());
    }
    if (t == 4) {  // restore while nodes 0 and 2 are down
      std::stringstream blob;
      a.save_state(blob);
      b.emplace(schedule);
      b->size_to(net_b);
      b->load_state(blob);
      net_b = net_a;
    }
  }
}

}  // namespace
}  // namespace lgg::core
