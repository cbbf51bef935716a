// Topology churn: the scheduled live-mutation events (edge_remove /
// edge_add / node_leave / node_join / nudge) — grammar, strict schedule
// validation, apply_churn semantics, conservation, and checkpointing of
// the churn overlays.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "common/require.hpp"
#include "core/checkpoint.hpp"
#include "core/faults.hpp"
#include "core/scenarios.hpp"
#include "core/simulator.hpp"
#include "obs/telemetry.hpp"

namespace lgg::core {
namespace {

TEST(ChurnSpec, ParsesEveryChurnClauseKind) {
  const FaultSchedule s = parse_fault_spec(
      "edge_remove:edge=7,at=100;"
      "edge_add:edge=7,at=250;"
      "node_leave:node=3,at=100;"
      "node_join:node=3,at=400;"
      "nudge:node=2,at=50,din=1,dout=-1");
  ASSERT_EQ(s.events().size(), 5u);
  EXPECT_TRUE(s.has_churn_events());
  EXPECT_EQ(s.events()[0].kind, FaultKind::kEdgeRemove);
  EXPECT_EQ(s.events()[0].edge, 7);
  EXPECT_EQ(s.events()[0].at, 100);
  EXPECT_EQ(s.events()[1].kind, FaultKind::kEdgeAdd);
  EXPECT_EQ(s.events()[2].kind, FaultKind::kNodeLeave);
  EXPECT_EQ(s.events()[2].node, 3);
  EXPECT_EQ(s.events()[3].kind, FaultKind::kNodeJoin);
  EXPECT_EQ(s.events()[4].kind, FaultKind::kCapacityNudge);
  EXPECT_EQ(s.events()[4].din, 1);
  EXPECT_EQ(s.events()[4].dout, -1);
}

TEST(ChurnSpec, RoundTripsThroughToString) {
  const std::string spec =
      "edge_remove:edge=7,at=100;"
      "edge_add:edge=7,at=250;"
      "node_leave:node=3,at=100;"
      "node_join:node=3,at=400;"
      "nudge:node=2,at=50,din=1,dout=-1;"
      "nudge:node=4,at=60,din=2";
  const FaultSchedule a = parse_fault_spec(spec);
  const FaultSchedule b = parse_fault_spec(to_string(a));
  EXPECT_EQ(to_string(a), to_string(b));
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].node, b.events()[i].node);
    EXPECT_EQ(a.events()[i].edge, b.events()[i].edge);
    EXPECT_EQ(a.events()[i].at, b.events()[i].at);
    EXPECT_EQ(a.events()[i].din, b.events()[i].din);
    EXPECT_EQ(a.events()[i].dout, b.events()[i].dout);
  }
}

TEST(ChurnSpec, RejectsMalformedChurnClauses) {
  // Churn events are instantaneous: `for` is meaningless and rejected.
  EXPECT_THROW(parse_fault_spec("edge_remove:edge=1,at=5,for=10"),
               ContractViolation);
  EXPECT_THROW(parse_fault_spec("node_leave:node=1,for=10"),
               ContractViolation);
  // Edge kinds need edge=, node kinds need node=.
  EXPECT_THROW(parse_fault_spec("edge_remove:node=1"), ContractViolation);
  EXPECT_THROW(parse_fault_spec("node_leave:edge=1"), ContractViolation);
  // A nudge that moves nothing is a schedule bug.
  EXPECT_THROW(parse_fault_spec("nudge:node=1,at=5"), ContractViolation);
  EXPECT_THROW(parse_fault_spec("nudge:node=1,at=5,din=0,dout=0"),
               ContractViolation);
}

TEST(ChurnSchedule, ValidateChecksEdgeRange) {
  const SdNetwork net = scenarios::single_path(4, 1, 1);  // 3 edges
  FaultSchedule bad;
  bad.add({.kind = FaultKind::kEdgeRemove, .at = 0, .edge = 99});
  EXPECT_THROW(bad.validate(net), ContractViolation);
  FaultSchedule ok;
  ok.add({.kind = FaultKind::kEdgeRemove, .at = 0, .edge = 2});
  EXPECT_NO_THROW(ok.validate(net));
}

TEST(ChurnSchedule, ValidateStrictRejectsStructuralBugs) {
  const SdNetwork net = scenarios::grid_single(3, 4);

  const auto strict_throws = [&](FaultSchedule s) {
    EXPECT_THROW(s.validate_strict(net), ContractViolation);
  };

  {  // Exact duplicate event.
    FaultSchedule s;
    s.add({.kind = FaultKind::kEdgeRemove, .at = 5, .edge = 1});
    s.add({.kind = FaultKind::kEdgeRemove, .at = 5, .edge = 1});
    strict_throws(std::move(s));
  }
  {  // Removing an already-removed edge.
    FaultSchedule s;
    s.add({.kind = FaultKind::kEdgeRemove, .at = 5, .edge = 1});
    s.add({.kind = FaultKind::kEdgeRemove, .at = 9, .edge = 1});
    strict_throws(std::move(s));
  }
  {  // edge_add with no prior edge_remove.
    FaultSchedule s;
    s.add({.kind = FaultKind::kEdgeAdd, .at = 5, .edge = 1});
    strict_throws(std::move(s));
  }
  {  // node_join with no prior node_leave.
    FaultSchedule s;
    s.add({.kind = FaultKind::kNodeJoin, .node = 2, .at = 5});
    strict_throws(std::move(s));
  }
  {  // Leaving twice without re-joining.
    FaultSchedule s;
    s.add({.kind = FaultKind::kNodeLeave, .node = 2, .at = 5});
    s.add({.kind = FaultKind::kNodeLeave, .node = 2, .at = 9});
    strict_throws(std::move(s));
  }
  {  // Nudging a departed node.
    FaultSchedule s;
    s.add({.kind = FaultKind::kNodeLeave, .node = 2, .at = 5});
    s.add({.kind = FaultKind::kCapacityNudge, .node = 2, .at = 9, .din = 1});
    strict_throws(std::move(s));
  }
  {  // Overlapping scheduled crash windows on one node.
    FaultSchedule s;
    s.add({.kind = FaultKind::kCrash, .node = 2, .at = 5, .duration = 10});
    s.add({.kind = FaultKind::kCrash, .node = 2, .at = 9, .duration = 10});
    strict_throws(std::move(s));
  }
  {  // A clean schedule passes.
    FaultSchedule s;
    s.add({.kind = FaultKind::kEdgeRemove, .at = 5, .edge = 1});
    s.add({.kind = FaultKind::kEdgeAdd, .at = 9, .edge = 1});
    s.add({.kind = FaultKind::kNodeLeave, .node = 2, .at = 5});
    s.add({.kind = FaultKind::kNodeJoin, .node = 2, .at = 9});
    s.add({.kind = FaultKind::kCapacityNudge, .node = 2, .at = 20, .din = 1});
    s.add({.kind = FaultKind::kCrash, .node = 3, .at = 5, .duration = 4});
    s.add({.kind = FaultKind::kCrash, .node = 3, .at = 9, .duration = 4});
    EXPECT_NO_THROW(s.validate_strict(net));
  }
}

TEST(Churn, EdgeRemoveCutsDeliveryUntilEdgeAdd) {
  // single_path(3): source 0 -> 1 -> sink 2, one packet per step.  Remove
  // edge 0 (the source's only link) and the source's queue grows until the
  // edge returns.
  SdNetwork net = scenarios::single_path(3, 1, 2);
  SimulatorOptions options;
  options.seed = 11;
  Simulator sim(std::move(net), options);

  FaultSchedule schedule;
  schedule.add({.kind = FaultKind::kEdgeRemove, .at = 10, .edge = 0});
  schedule.add({.kind = FaultKind::kEdgeAdd, .at = 30, .edge = 0});
  sim.set_faults(std::make_unique<FaultInjector>(schedule, 1));

  const std::uint64_t v0 = sim.topology_version();
  sim.run(10);
  EXPECT_LE(sim.queues()[0], 1);  // steady state before the cut
  sim.run(1);                     // step 10 fires the removal
  EXPECT_GT(sim.topology_version(), v0);
  ASSERT_EQ(sim.last_churn().edges.size(), 1u);
  EXPECT_EQ(sim.last_churn().edges[0].edge, 0);
  EXPECT_FALSE(sim.last_churn().edges[0].active);
  EXPECT_TRUE(sim.faults()->edge_removed(0));

  sim.run(19);  // steps 11..29: the source is stranded
  EXPECT_GE(sim.queues()[0], 19);
  const PacketCount backlog = sim.queues()[0];
  const std::int64_t delivered_at_cut = sim.cumulative().extracted;
  sim.run(1);  // step 30 restores the edge
  EXPECT_FALSE(sim.faults()->edge_removed(0));
  sim.run(60);
  // The source injects one packet per step and forwards at most one per
  // step, so the backlog cannot drain — but it must stop growing, and
  // delivery must resume at full rate.
  EXPECT_LE(sim.queues()[0], backlog + 2);
  EXPECT_GE(sim.cumulative().extracted, delivered_at_cut + 50);
  EXPECT_TRUE(sim.conserves_packets());
}

TEST(Churn, NodeLeaveWipesQueueAndParksSpec) {
  SdNetwork net = scenarios::grid_single(3, 4);
  const NodeId sink = net.sinks().back();
  const NodeSpec original = net.spec(sink);
  SimulatorOptions options;
  options.seed = 3;
  Simulator sim(std::move(net), options);
  sim.set_initial_queue(sink, 25);

  FaultSchedule schedule;
  schedule.add({.kind = FaultKind::kNodeLeave, .node = sink, .at = 5});
  schedule.add({.kind = FaultKind::kNodeJoin, .node = sink, .at = 40});
  sim.set_faults(std::make_unique<FaultInjector>(schedule, 1));

  sim.run(6);  // through the departure (step 5 is the churn step)
  EXPECT_TRUE(sim.faults()->node_departed(sink));
  EXPECT_EQ(sim.queues()[sink], 0);  // wiped on departure
  // The sink drains its seeded queue at out-rate before the departure, so
  // only the remainder is wiped — but something must be.
  EXPECT_GT(sim.cumulative().crash_wiped, 0);
  EXPECT_TRUE(sim.conserves_packets());
  // The spec is parked: the node is no longer a sink.
  EXPECT_EQ(sim.network().spec(sink).out, 0);
  ASSERT_EQ(sim.last_churn().left.size(), 1u);
  EXPECT_EQ(sim.last_churn().left[0], sink);

  sim.run(35);  // through the re-join at step 40
  EXPECT_FALSE(sim.faults()->node_departed(sink));
  EXPECT_EQ(sim.network().spec(sink).out, original.out);
  EXPECT_TRUE(sim.conserves_packets());
}

TEST(Churn, NudgeMovesRatesAndClampsAtZero) {
  SdNetwork net = scenarios::single_path(3, 2, 2);
  SimulatorOptions options;
  options.seed = 5;
  Simulator sim(std::move(net), options);

  FaultSchedule schedule;
  // in(0): 2 -> 1 -> 0 (the -5 clamps), then back to 3.
  schedule.add({.kind = FaultKind::kCapacityNudge, .node = 0, .at = 2,
                .din = -1});
  schedule.add({.kind = FaultKind::kCapacityNudge, .node = 0, .at = 4,
                .din = -5});
  schedule.add({.kind = FaultKind::kCapacityNudge, .node = 0, .at = 6,
                .din = 3});
  sim.set_faults(std::make_unique<FaultInjector>(schedule, 1));

  sim.run(2);
  EXPECT_EQ(sim.network().spec(0).in, 2);
  sim.run(1);  // step 2
  EXPECT_EQ(sim.network().spec(0).in, 1);
  ASSERT_EQ(sim.last_churn().rates.size(), 1u);
  EXPECT_EQ(sim.last_churn().rates[0].before.in, 2);
  EXPECT_EQ(sim.last_churn().rates[0].after.in, 1);
  sim.run(2);  // step 4 clamps at zero
  EXPECT_EQ(sim.network().spec(0).in, 0);
  sim.run(2);  // step 6 restores injection at rate 3
  EXPECT_EQ(sim.network().spec(0).in, 3);
  sim.run(10);
  EXPECT_TRUE(sim.conserves_packets());
  EXPECT_GT(sim.cumulative().injected, 0);
}

TEST(Churn, FlightRecorderSeesChurnEvents) {
  SdNetwork net = scenarios::grid_single(3, 4);
  const NodeId sink = net.sinks().back();
  SimulatorOptions options;
  options.seed = 9;
  Simulator sim(std::move(net), options);

  FaultSchedule schedule;
  schedule.add({.kind = FaultKind::kEdgeRemove, .at = 2, .edge = 0});
  schedule.add({.kind = FaultKind::kNodeLeave, .node = sink, .at = 3});
  schedule.add({.kind = FaultKind::kNodeJoin, .node = sink, .at = 5});
  schedule.add({.kind = FaultKind::kEdgeAdd, .at = 6, .edge = 0});
  schedule.add({.kind = FaultKind::kCapacityNudge, .node = sink, .at = 8,
                .dout = 1});
  sim.set_faults(std::make_unique<FaultInjector>(schedule, 1));

  obs::TelemetryOptions topts;
  topts.flight_capacity = 256;
  obs::Telemetry telemetry(topts);
  sim.set_telemetry(&telemetry);

  sim.run(10);
  int edge_down = 0, edge_up = 0, leave = 0, join = 0, rate = 0;
  for (const obs::FlightEvent& e : telemetry.flight()->events()) {
    switch (e.kind) {
      case obs::EventKind::kEdgeDown: ++edge_down; break;
      case obs::EventKind::kEdgeUp: ++edge_up; break;
      case obs::EventKind::kNodeLeave: ++leave; break;
      case obs::EventKind::kNodeJoin: ++join; break;
      case obs::EventKind::kRateChange: ++rate; break;
      default: break;
    }
  }
  EXPECT_EQ(edge_down, 1);
  EXPECT_EQ(edge_up, 1);
  EXPECT_EQ(leave, 1);
  EXPECT_EQ(join, 1);
  // node_leave, node_join, and the nudge each record a rate change.
  EXPECT_EQ(rate, 3);
}

TEST(Churn, MidChurnCheckpointResumeIsBitwiseIdentical) {
  // Break while the overlay is in force (edge removed, node departed) and
  // before the restorations fire; the resumed run must replay the rest of
  // the trajectory and final checkpoint byte-for-byte.
  const auto build = [] {
    SdNetwork net = scenarios::grid_single(3, 4);
    SimulatorOptions options;
    options.seed = 0xC0DE;
    auto sim = std::make_unique<Simulator>(std::move(net), options);
    FaultSchedule schedule;
    const NodeId sink = sim->network().sinks().back();
    schedule.add({.kind = FaultKind::kEdgeRemove, .at = 10, .edge = 1});
    schedule.add({.kind = FaultKind::kNodeLeave, .node = sink, .at = 12});
    schedule.add({.kind = FaultKind::kCapacityNudge, .node = 0, .at = 14,
                  .din = 1});
    schedule.add({.kind = FaultKind::kNodeJoin, .node = sink, .at = 40});
    schedule.add({.kind = FaultKind::kEdgeAdd, .at = 45, .edge = 1});
    sim->set_faults(std::make_unique<FaultInjector>(schedule, 1));
    return sim;
  };
  constexpr TimeStep kBreak = 20;
  constexpr TimeStep kHorizon = 60;

  auto uninterrupted = build();
  uninterrupted->run(kHorizon);
  std::ostringstream want_blob(std::ios::binary);
  uninterrupted->save_checkpoint(want_blob);

  auto first = build();
  first->run(kBreak);
  // Mid-churn: the mutated specs must round-trip through the v5 payload.
  EXPECT_FALSE(first->edge_mask().all_active());
  std::stringstream blob(std::ios::in | std::ios::out | std::ios::binary);
  first->save_checkpoint(blob);

  auto resumed = build();
  resumed->restore_checkpoint(blob);
  ASSERT_EQ(resumed->now(), kBreak);
  // The restored network carries the churned specs, not the file's.
  EXPECT_EQ(resumed->network().spec(0).in,
            first->network().spec(0).in);
  resumed->run(kHorizon - kBreak);
  std::ostringstream got_blob(std::ios::binary);
  resumed->save_checkpoint(got_blob);
  EXPECT_EQ(want_blob.str(), got_blob.str());
  EXPECT_TRUE(resumed->conserves_packets());
}

TEST(Churn, ResumeDoesNotRefireChurnEvents) {
  // A churn event at t fires when the live run crosses t; a resume from a
  // checkpoint taken after t must not fire it again (the overlay state in
  // the injector blob is authoritative).
  const auto build = [] {
    SdNetwork net = scenarios::single_path(3, 1, 2);
    SimulatorOptions options;
    options.seed = 77;
    auto sim = std::make_unique<Simulator>(std::move(net), options);
    FaultSchedule schedule;
    schedule.add({.kind = FaultKind::kCapacityNudge, .node = 0, .at = 5,
                  .din = 1});
    sim->set_faults(std::make_unique<FaultInjector>(schedule, 1));
    return sim;
  };
  auto first = build();
  first->run(10);  // nudge fired at step 5: in = 2
  ASSERT_EQ(first->network().spec(0).in, 2);
  std::stringstream blob(std::ios::in | std::ios::out | std::ios::binary);
  first->save_checkpoint(blob);

  auto resumed = build();
  resumed->restore_checkpoint(blob);
  resumed->run(10);
  // Had the nudge re-fired the rate would be 3.
  EXPECT_EQ(resumed->network().spec(0).in, 2);
  first->run(10);
  EXPECT_EQ(std::vector<PacketCount>(first->queues().begin(),
                                     first->queues().end()),
            std::vector<PacketCount>(resumed->queues().begin(),
                                     resumed->queues().end()));
}

}  // namespace
}  // namespace lgg::core
