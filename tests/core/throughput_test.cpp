#include "core/throughput.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>

#include "common/rng.hpp"
#include "core/scenarios.hpp"
#include "core/simulator.hpp"
#include "graph/generators.hpp"

namespace lgg::core {
namespace {

TEST(SaturateSources, RaisesOnlySourceRates) {
  const SdNetwork base = scenarios::grid_flow(2, 3, 1, 2);
  const SdNetwork sat = saturate_sources(base, 5);
  for (NodeId v = 0; v < base.node_count(); ++v) {
    if (base.spec(v).in > 0) {
      EXPECT_EQ(sat.spec(v).in, 5);
    } else {
      EXPECT_EQ(sat.spec(v), base.spec(v));
    }
  }
}

TEST(MaxFlowViaLgg, SinglePathComputesUnitFlow) {
  const SdNetwork net = scenarios::single_path(5, 3, 3);  // oversaturated
  const ThroughputEstimate est = estimate_max_flow_via_lgg(net, 500, 2000);
  EXPECT_EQ(est.fstar, 1);
  EXPECT_NEAR(est.rate, 1.0, 0.05);
}

TEST(MaxFlowViaLgg, FatPathComputesLaneCount) {
  const SdNetwork net = scenarios::fat_path(4, 3, 5, 3);
  const ThroughputEstimate est = estimate_max_flow_via_lgg(net, 500, 2000);
  EXPECT_EQ(est.fstar, 3);
  EXPECT_LT(est.relative_error, 0.05);
}

TEST(MaxFlowViaLgg, BarbellComputesBridgeCapacity) {
  const SdNetwork net = scenarios::barbell_bottleneck(4, 4, 4);
  const ThroughputEstimate est = estimate_max_flow_via_lgg(net, 1000, 3000);
  EXPECT_EQ(est.fstar, 1);
  EXPECT_NEAR(est.rate, 1.0, 0.1);
}

TEST(MaxFlowViaLgg, RandomInstancesConvergeToFstar) {
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    graph::Multigraph g = graph::make_random_multigraph(10, 30, seed);
    if (!graph::is_connected(g)) continue;
    SdNetwork net(std::move(g));
    net.set_source(0, 20);  // far beyond any cut
    net.set_sink(9, 20);
    const ThroughputEstimate est =
        estimate_max_flow_via_lgg(net, 1500, 4000, seed);
    EXPECT_LT(est.relative_error, 0.08)
        << "seed " << seed << ": rate " << est.rate << " vs f* "
        << est.fstar;
  }
}

TEST(QueueCut, PlateauCertifiesTheMinCutOnBarbell) {
  // Run to saturation, then read the min cut straight off the queues.
  const SdNetwork net = scenarios::barbell_bottleneck(4, 4, 4);
  SimulatorOptions options;
  options.seed = 2;
  Simulator sim(net, options);
  sim.run(3000);
  const QueueCut cut = cut_from_queue_profile(net, sim.queues());
  EXPECT_EQ(cut.value, 1);  // the bridge
  // Source side contains the left clique, excludes the sink.
  EXPECT_TRUE(cut.side_a[0]);
  EXPECT_FALSE(cut.side_a[static_cast<std::size_t>(net.node_count() - 1)]);
}

TEST(QueueCut, CertifiesFstarOnSeveralFamilies) {
  struct Case {
    const char* label;
    SdNetwork net;
  };
  std::vector<Case> cases;
  cases.push_back({"fat_path", scenarios::fat_path(4, 3, 6, 6)});
  cases.push_back({"clique_chain", scenarios::clique_chain(3, 3, 9)});
  cases.push_back(
      {"grid", saturate_sources(scenarios::grid_single(3, 4, 1, 2), 8)});
  for (auto& c : cases) {
    const Cap fstar = analyze(c.net).fstar;
    SimulatorOptions options;
    options.seed = 4;
    Simulator sim(c.net, options);
    sim.run(4000);
    const QueueCut cut = cut_from_queue_profile(c.net, sim.queues());
    EXPECT_EQ(cut.value, fstar) << c.label;
  }
}

TEST(QueueCut, UnsaturatedNetworkRejectedWhenSourcesDrain) {
  // An unsaturated source keeps a tiny queue; if it ever sits at 0 there
  // is no level set containing it and the extraction must refuse.
  const SdNetwork net = scenarios::fat_path(3, 4, 1, 4);
  SimulatorOptions options;
  Simulator sim(net, options);
  sim.step();  // source queue drained to 0 after its sends
  if (sim.queues()[0] == 0) {
    EXPECT_THROW(cut_from_queue_profile(net, sim.queues()),
                 ContractViolation);
  } else {
    SUCCEED();
  }
}

/// The level-by-level form of cut_from_queue_profile: rebuild A(ℓ) and
/// rescan every edge for each distinct level, lowest level first.
std::optional<QueueCut> reference_queue_cut(
    const SdNetwork& net, std::span<const PacketCount> queues) {
  const graph::Multigraph& g = net.topology();
  std::vector<PacketCount> levels(queues.begin(), queues.end());
  std::sort(levels.begin(), levels.end());
  levels.erase(std::unique(levels.begin(), levels.end()), levels.end());
  std::optional<QueueCut> best;
  for (const PacketCount level : levels) {
    if (level <= 0) continue;
    std::vector<char> side(queues.size(), 0);
    for (std::size_t v = 0; v < queues.size(); ++v) {
      side[v] = queues[v] >= level ? 1 : 0;
    }
    bool sources_inside = true;
    for (const NodeId s : net.sources()) {
      sources_inside = sources_inside && side[static_cast<std::size_t>(s)];
    }
    if (!sources_inside) continue;
    Cap value = 0;
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      const graph::Endpoints ep = g.endpoints(e);
      if (side[static_cast<std::size_t>(ep.u)] !=
          side[static_cast<std::size_t>(ep.v)]) {
        ++value;
      }
    }
    for (const NodeId d : net.sinks()) {
      if (side[static_cast<std::size_t>(d)]) value += net.spec(d).out;
    }
    if (!best || value < best->value) {
      best = QueueCut{std::move(side), value, level};
    }
  }
  return best;
}

TEST(QueueCut, SweepMatchesTheLevelByLevelReference) {
  Rng rng(0x5EE9);
  int compared = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const auto n = static_cast<NodeId>(rng.uniform_int(2, 24));
    const auto m = static_cast<EdgeId>(rng.uniform_int(0, 3 * n));
    SdNetwork net(graph::make_random_multigraph(
        n, m, static_cast<std::uint64_t>(trial)));
    std::vector<NodeId> nodes(static_cast<std::size_t>(n));
    std::iota(nodes.begin(), nodes.end(), NodeId{0});
    std::shuffle(nodes.begin(), nodes.end(), rng.engine());
    const auto nsrc = static_cast<std::size_t>(rng.uniform_int(0, 2));
    const auto nsink = static_cast<std::size_t>(rng.uniform_int(1, 3));
    for (std::size_t i = 0; i < nsrc + nsink && i < nodes.size(); ++i) {
      if (i < nsrc) {
        net.set_source(nodes[i], rng.uniform_int(1, 3));
      } else {
        net.set_sink(nodes[i], rng.uniform_int(1, 4));
      }
    }
    // Few levels, so ties between levels and cut values are common.
    const PacketCount top = trial % 4 == 0 ? 1000 : 5;
    std::vector<PacketCount> queues(static_cast<std::size_t>(n));
    for (PacketCount& q : queues) q = rng.uniform_int(0, top);
    const std::optional<QueueCut> expected = reference_queue_cut(net, queues);
    SCOPED_TRACE("trial " + std::to_string(trial));
    if (!expected) {
      EXPECT_THROW((void)cut_from_queue_profile(net, queues),
                   ContractViolation);
      continue;
    }
    const QueueCut cut = cut_from_queue_profile(net, queues);
    EXPECT_EQ(cut.value, expected->value);
    EXPECT_EQ(cut.level, expected->level);
    EXPECT_EQ(cut.side_a, expected->side_a);
    ++compared;
  }
  EXPECT_GT(compared, 300);
}

TEST(MaxFlowViaLgg, UndersaturatedSourcesMeasureArrivalRate) {
  // If the sources inject less than the cut, throughput equals the
  // arrival rate, not f* — the estimator needs saturation.
  const SdNetwork net = scenarios::fat_path(3, 4, 1, 4);  // in 1 < f* 4
  const ThroughputEstimate est = estimate_max_flow_via_lgg(net, 500, 2000);
  EXPECT_NEAR(est.rate, 1.0, 0.05);
  EXPECT_EQ(est.fstar, 4);
}

}  // namespace
}  // namespace lgg::core
