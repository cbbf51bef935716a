// One link-state path: FaultInjector decides which links are up, and the
// simulator routes every step against one mask built from it.
//
// The oracle test rebuilds the liveness rule from scratch after every step
// — random-off bits replayed from the dynamics-phase draws, scheduled
// removals and departures replayed from the schedule, the down-set read
// from the injector — and compares it with edge_mask(), whose incremental
// active count must also agree with a full scan.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <vector>

#include "core/faults.hpp"
#include "core/simulator.hpp"
#include "graph/generators.hpp"
#include "graph/multigraph.hpp"

namespace lgg::core {
namespace {

std::unique_ptr<FaultInjector> churn_injector(
    double p_off, double p_on, std::vector<EdgeId> protected_edges = {}) {
  FaultSchedule schedule;
  schedule.set_random_churn({p_off, p_on, std::move(protected_edges)});
  return std::make_unique<FaultInjector>(std::move(schedule));
}

SdNetwork four_edge_path() {
  graph::Multigraph g(5);
  for (NodeId v = 0; v < 4; ++v) g.add_edge(v, v + 1);
  SdNetwork net(std::move(g));
  net.set_source(0, 1);
  net.set_sink(4, 1);
  return net;
}

void expect_counts_match_scan(const graph::EdgeMask& mask) {
  EdgeId active = 0;
  for (EdgeId e = 0; e < mask.size(); ++e) active += mask.active(e) ? 1 : 0;
  EXPECT_EQ(mask.active_count(), active);
  EXPECT_EQ(mask.all_active(), active == mask.size());
}

TEST(StaticTopology, NeverChanges) {
  // Without an injector every link stays up and the version never moves.
  Simulator sim(four_edge_path());
  for (int t = 0; t < 20; ++t) {
    EXPECT_FALSE(sim.step().topology_changed);
  }
  EXPECT_TRUE(sim.edge_mask().all_active());
  EXPECT_EQ(sim.topology_version(), 0u);
}

TEST(RandomChurn, ProbabilityZeroIsStatic) {
  Simulator sim(four_edge_path());
  sim.set_faults(churn_injector(0.0, 0.0));
  for (int t = 0; t < 20; ++t) {
    EXPECT_FALSE(sim.step().topology_changed);
  }
  EXPECT_TRUE(sim.edge_mask().all_active());
  EXPECT_EQ(sim.topology_version(), 0u);
}

TEST(RandomChurn, ProbabilityOneFlipsEverything) {
  Simulator sim(four_edge_path());
  sim.set_faults(churn_injector(1.0, 1.0));
  EXPECT_TRUE(sim.step().topology_changed);
  EXPECT_EQ(sim.edge_mask().active_count(), 0);
  EXPECT_EQ(sim.last_churn().edges.size(), 4u);
  EXPECT_TRUE(sim.step().topology_changed);
  EXPECT_TRUE(sim.edge_mask().all_active());
  EXPECT_EQ(sim.topology_version(), 2u);
}

TEST(RandomChurn, BadProbabilitiesRejected) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const auto& [p_off, p_on] :
       {std::pair{-0.1, 0.0}, std::pair{0.0, 1.1}, std::pair{nan, 0.5}}) {
    Simulator sim(four_edge_path());
    EXPECT_THROW(sim.set_faults(churn_injector(p_off, p_on)),
                 ContractViolation);
    EXPECT_EQ(sim.faults(), nullptr);
  }
  Simulator sim(four_edge_path());
  EXPECT_THROW(sim.set_faults(churn_injector(0.1, 0.1, {4})),
               ContractViolation);  // the path has edges 0..3
  for (const char* spec :
       {"random_churn:off=1.5,on=0.1", "random_churn:off=0.1",
        "random_churn:off=0.1,on=x", "random_churn:off=0.1,on=0.2,protect=1/-2",
        "random_churn:off=0.1,on=0.2,protect=1//2"}) {
    EXPECT_THROW(parse_fault_spec(spec), ContractViolation) << spec;
  }
}

TEST(ProtectedChurn, ProtectedEdgesStayUp) {
  Simulator sim(four_edge_path());
  sim.set_faults(churn_injector(/*p_off=*/1.0, /*p_on=*/0.0, {0, 2}));
  for (int t = 0; t < 5; ++t) {
    sim.step();
    EXPECT_TRUE(sim.edge_mask().active(0));
    EXPECT_FALSE(sim.edge_mask().active(1));
    EXPECT_TRUE(sim.edge_mask().active(2));
    EXPECT_FALSE(sim.edge_mask().active(3));
  }
}

TEST(ProtectedChurn, ReactivatesProtectedEdges) {
  // A checkpoint taken with every edge held down by random churn restores
  // into a run that protects edge 0: the next step raises it again.
  Simulator down(four_edge_path());
  down.set_faults(churn_injector(1.0, 0.0));
  down.step();
  ASSERT_EQ(down.edge_mask().active_count(), 0);
  std::stringstream checkpoint(std::ios::in | std::ios::out |
                               std::ios::binary);
  down.save_checkpoint(checkpoint);

  Simulator sim(four_edge_path());
  sim.set_faults(churn_injector(0.0, 0.0, {0}));
  sim.restore_checkpoint(checkpoint);
  EXPECT_EQ(sim.edge_mask().active_count(), 0);
  EXPECT_TRUE(sim.step().topology_changed);
  EXPECT_TRUE(sim.edge_mask().active(0));
  EXPECT_EQ(sim.edge_mask().active_count(), 1);
  ASSERT_EQ(sim.last_churn().edges.size(), 1u);
  EXPECT_TRUE(sim.last_churn().edges[0].active);
}

TEST(RandomChurn, SpecRoundTrips) {
  for (const char* spec :
       {"random_churn:off=0.02,on=0.3",
        "random_churn:off=0,on=1,protect=4",
        "crash:node=1,at=3,for=2,mode=freeze;edge_remove:edge=2,at=5;"
        "random_crashes:p=0.001,down=2..4,mode=wipe;"
        "random_churn:off=0.1234567890123,on=1e-05,protect=3/0/3"}) {
    const FaultSchedule parsed = parse_fault_spec(spec);
    const std::string text = to_string(parsed);
    const FaultSchedule reparsed = parse_fault_spec(text);
    EXPECT_EQ(to_string(reparsed), text) << spec;
    const RandomChurnConfig* a = parsed.random_churn();
    const RandomChurnConfig* b = reparsed.random_churn();
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->p_off, b->p_off);
    EXPECT_EQ(a->p_on, b->p_on);
    EXPECT_EQ(a->protected_edges, b->protected_edges);
  }
}

/// The liveness rule rebuilt from scratch, step by step.
class LinkStateModel {
 public:
  LinkStateModel(const SdNetwork& net, const FaultSchedule& schedule,
                 std::uint64_t seed)
      : net_(net),
        schedule_(schedule),
        seed_(seed),
        random_off_(static_cast<std::size_t>(net.topology().edge_count()), 0),
        removed_(random_off_.size(), 0),
        departed_(static_cast<std::size_t>(net.node_count()), 0),
        down_(departed_.size(), 0) {}

  /// Replays step t's random draws and scheduled churn; returns how many
  /// topology-version bumps the step makes, given the injector's down-set.
  int advance(TimeStep t, const FaultInjector& faults) {
    int bumps = 0;
    if (const RandomChurnConfig* c = schedule_.random_churn()) {
      std::vector<char> is_protected(random_off_.size(), 0);
      for (const EdgeId e : c->protected_edges) {
        is_protected[static_cast<std::size_t>(e)] = 1;
      }
      Rng rng = draw_rng(seed_, static_cast<std::uint64_t>(t),
                         static_cast<std::uint64_t>(StepPhase::kDynamics));
      bool flipped = false;
      for (std::size_t e = 0; e < random_off_.size(); ++e) {
        char& off = random_off_[e];
        const char next = is_protected[e]  ? 0
                          : off            ? !rng.bernoulli(c->p_on)
                                           : rng.bernoulli(c->p_off);
        flipped = flipped || next != off;
        off = next;
      }
      bumps += flipped ? 1 : 0;
    }
    bool churned = false;
    for (const FaultEvent& e : schedule_.events()) {
      if (e.at != t) continue;
      const auto flip = [&](std::vector<char>& bits, std::int64_t i, char to) {
        char& bit = bits[static_cast<std::size_t>(i)];
        churned = churned || bit != to;
        bit = to;
      };
      switch (e.kind) {
        case FaultKind::kEdgeRemove: flip(removed_, e.edge, 1); break;
        case FaultKind::kEdgeAdd: flip(removed_, e.edge, 0); break;
        case FaultKind::kNodeLeave: flip(departed_, e.node, 1); break;
        case FaultKind::kNodeJoin: flip(departed_, e.node, 0); break;
        default: break;
      }
    }
    bumps += churned ? 1 : 0;
    bool down_changed = false;
    for (NodeId v = 0; v < net_.node_count(); ++v) {
      const char now = faults.node_down(v) ? 1 : 0;
      down_changed = down_changed || now != down_[static_cast<std::size_t>(v)];
      down_[static_cast<std::size_t>(v)] = now;
    }
    return bumps + (down_changed ? 1 : 0);
  }

  [[nodiscard]] bool live(EdgeId e) const {
    const auto [u, v] = net_.topology().endpoints(e);
    const auto cut = [&](NodeId w) {
      const auto i = static_cast<std::size_t>(w);
      return departed_[i] != 0 || down_[i] != 0;
    };
    const auto i = static_cast<std::size_t>(e);
    return random_off_[i] == 0 && removed_[i] == 0 && !cut(u) && !cut(v);
  }
  [[nodiscard]] bool random_off(EdgeId e) const {
    return random_off_[static_cast<std::size_t>(e)] != 0;
  }
  [[nodiscard]] bool removed(EdgeId e) const {
    return removed_[static_cast<std::size_t>(e)] != 0;
  }

 private:
  const SdNetwork& net_;
  const FaultSchedule& schedule_;
  std::uint64_t seed_;
  std::vector<char> random_off_;
  std::vector<char> removed_;
  std::vector<char> departed_;
  std::vector<char> down_;
};

/// Random churn with a protected set, scheduled edge_remove/edge_add pairs
/// (some on edges random churn also flips), scheduled wipe and freeze
/// crashes, random crashes and node_leave/node_join pairs.
FaultSchedule random_link_schedule(Rng& rng, const SdNetwork& net,
                                   TimeStep horizon) {
  const EdgeId m = net.topology().edge_count();
  const NodeId n = net.node_count();
  FaultSchedule schedule;
  RandomChurnConfig churn{rng.uniform01() * 0.3, 0.1 + rng.uniform01() * 0.5,
                          {}};
  for (EdgeId e = 0; e < m; ++e) {
    if (rng.bernoulli(0.2)) churn.protected_edges.push_back(e);
  }
  schedule.set_random_churn(std::move(churn));
  for (int i = 0; i < 3; ++i) {
    const auto e = static_cast<EdgeId>(rng.uniform_int(0, m - 1));
    const TimeStep at = rng.uniform_int(0, horizon / 2);
    // One pair per edge keeps remove/add strictly alternating.
    bool taken = false;
    for (const FaultEvent& ev : schedule.events()) {
      taken = taken || (ev.kind == FaultKind::kEdgeRemove && ev.edge == e);
    }
    if (taken) continue;
    schedule.add({.kind = FaultKind::kEdgeRemove, .at = at, .edge = e});
    schedule.add({.kind = FaultKind::kEdgeAdd,
                  .at = at + rng.uniform_int(1, horizon / 2),
                  .edge = e});
  }
  const auto node = [&] {
    return static_cast<NodeId>(rng.uniform_int(0, n - 1));
  };
  schedule.add({.kind = FaultKind::kCrash,
                .node = node(),
                .at = rng.uniform_int(0, horizon / 2),
                .duration = rng.uniform_int(1, horizon / 3),
                .mode = rng.bernoulli(0.5) ? CrashMode::kWipe
                                           : CrashMode::kFreeze});
  const NodeId leaver = node();
  const TimeStep leave_at = rng.uniform_int(0, horizon / 2);
  schedule.add(
      {.kind = FaultKind::kNodeLeave, .node = leaver, .at = leave_at});
  schedule.add({.kind = FaultKind::kNodeJoin,
                .node = leaver,
                .at = leave_at + rng.uniform_int(1, horizon / 2)});
  schedule.set_random_crashes({0.02, 1, 6, CrashMode::kFreeze});
  return schedule;
}

TEST(LinkState, MaskMatchesLivenessRuleOnRandomMultigraphs) {
  constexpr TimeStep kHorizon = 80;
  int both_bits = 0;  // steps where one edge had both reason bits set
  for (std::uint64_t master = 0; master < 24; ++master) {
    SCOPED_TRACE("master=" + std::to_string(master));
    Rng rng(master);
    const auto n = static_cast<NodeId>(rng.uniform_int(3, 12));
    SdNetwork net(graph::make_random_multigraph(
        n, static_cast<EdgeId>(rng.uniform_int(n - 1, 4 * n)),
        master * 17 + 3));
    net.set_source(0, rng.uniform_int(1, 3));
    net.set_sink(n - 1, rng.uniform_int(1, 3));
    const FaultSchedule schedule = random_link_schedule(rng, net, kHorizon);
    schedule.validate_strict(net);

    SimulatorOptions options;
    options.seed = derive_seed(master, 5);
    Simulator sim(net, options);
    sim.set_faults(std::make_unique<FaultInjector>(schedule, master));
    if (master % 3 == 1) sim.enable_sharding(2, 2);
    LinkStateModel model(sim.network(), schedule, options.seed);
    for (TimeStep t = 0; t < kHorizon; ++t) {
      const std::uint64_t version = sim.topology_version();
      const StepStats stats = sim.step();
      const int bumps = model.advance(t, *sim.faults());
      EXPECT_EQ(sim.topology_version() - version,
                static_cast<std::uint64_t>(bumps));
      EXPECT_EQ(stats.topology_changed, bumps > 0);
      const graph::EdgeMask& mask = sim.edge_mask();
      for (EdgeId e = 0; e < mask.size(); ++e) {
        ASSERT_EQ(mask.active(e), model.live(e)) << "t=" << t << " e=" << e;
        ASSERT_EQ(sim.faults()->edge_random_off(e), model.random_off(e));
        ASSERT_EQ(sim.faults()->edge_removed(e), model.removed(e));
        if (model.random_off(e) && model.removed(e)) ++both_bits;
      }
      expect_counts_match_scan(mask);
    }
    EXPECT_TRUE(sim.conserves_packets());
  }
  EXPECT_GT(both_bits, 0);  // the two bits were exercised together
}

}  // namespace
}  // namespace lgg::core
