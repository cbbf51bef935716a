#include "baselines/stale_lgg.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <vector>

#include "core/scenarios.hpp"
#include "core/simulator.hpp"
#include "support/test_helpers.hpp"

namespace lgg::baselines {
namespace {

core::SimulatorOptions checked(std::uint64_t seed = 7) {
  core::SimulatorOptions options;
  options.seed = seed;
  options.check_contract = true;
  return options;
}

TEST(StaleLgg, DelayZeroMatchesLggExactly) {
  const core::SdNetwork net = core::scenarios::grid_single(3, 4);
  const auto run_with = [&](std::unique_ptr<core::RoutingProtocol> protocol) {
    core::Simulator sim(net, checked(42), std::move(protocol));
    core::MetricsRecorder recorder;
    sim.run(400, &recorder);
    return recorder.network_state();
  };
  const auto lgg = run_with(std::make_unique<core::LggProtocol>());
  const auto stale = run_with(std::make_unique<StaleLggProtocol>(0));
  ASSERT_EQ(lgg.size(), stale.size());
  for (std::size_t t = 0; t < lgg.size(); ++t) {
    EXPECT_DOUBLE_EQ(lgg[t], stale[t]) << "t=" << t;
  }
}

TEST(StaleLgg, NegativeDelayRejected) {
  EXPECT_THROW(StaleLggProtocol(-1), ContractViolation);
}

class StaleDelaySweep : public ::testing::TestWithParam<int> {};

TEST_P(StaleDelaySweep, ConservesAndStaysStableOnUnsaturatedNetworks) {
  const int delay = GetParam();
  core::Simulator sim(core::scenarios::fat_path(4, 3, 1, 3), checked(9),
                      std::make_unique<StaleLggProtocol>(delay));
  core::MetricsRecorder recorder;
  sim.run(2500, &recorder);
  EXPECT_TRUE(sim.conserves_packets());
  EXPECT_EQ(core::assess_stability(recorder.network_state()).verdict,
            core::Verdict::kStable)
      << "delay=" << delay;
}

INSTANTIATE_TEST_SUITE_P(Delays, StaleDelaySweep,
                         ::testing::Values(0, 1, 2, 4, 8));

TEST(StaleLgg, StaleInfoCanOvershootButRemainsBounded) {
  // With stale info a node can keep firing at a neighbour that has already
  // filled up; queues overshoot relative to fresh LGG but stay bounded on
  // an unsaturated instance.
  const core::SdNetwork net = core::scenarios::fat_path(4, 3, 1, 3);
  const auto sup_state = [&](int delay) {
    core::Simulator sim(net, checked(11),
                        std::make_unique<StaleLggProtocol>(delay));
    core::MetricsRecorder recorder;
    sim.run(2000, &recorder);
    return core::assess_stability(recorder.network_state()).max_state;
  };
  EXPECT_LE(sup_state(0), sup_state(8) + 1e9);  // both finite; no blow-up
}

// StaleLggProtocol::select_transmissions as it was before its kById path
// ran LGG's filter-first selection, verbatim apart from being a free
// function over an explicit history: copy every active incident link,
// fully sort the copy by stale declaration, then walk it until the budget
// runs out.
void reference_stale_select(int delay, core::TieBreak tie_break,
                            std::deque<std::vector<PacketCount>>& history,
                            const core::StepView& view, Rng& rng,
                            std::vector<core::Transmission>& out) {
  std::vector<graph::IncidentLink> scratch;
  history.emplace_back(view.declared.begin(), view.declared.end());
  while (static_cast<int>(history.size()) > delay + 1) {
    history.pop_front();
  }
  const std::vector<PacketCount>& stale = history.front();

  const NodeId n = view.net->node_count();
  for (NodeId u = 0; u < n; ++u) {
    PacketCount budget = view.queue[static_cast<std::size_t>(u)];
    if (budget <= 0) continue;
    const PacketCount qu = view.queue[static_cast<std::size_t>(u)];

    scratch.clear();
    for (const graph::IncidentLink& link : view.incidence->incident(u)) {
      if (view.active != nullptr && !view.active->active(link.edge)) continue;
      scratch.push_back(link);
    }
    if (scratch.empty()) continue;
    auto stale_of = [&stale](NodeId v) {
      return stale[static_cast<std::size_t>(v)];
    };
    if (tie_break == core::TieBreak::kRandomShuffle) {
      std::shuffle(scratch.begin(), scratch.end(), rng.engine());
      std::stable_sort(scratch.begin(), scratch.end(),
                       [&](const graph::IncidentLink& a,
                           const graph::IncidentLink& b) {
                         return stale_of(a.neighbor) < stale_of(b.neighbor);
                       });
    } else {
      std::sort(scratch.begin(), scratch.end(),
                [&](const graph::IncidentLink& a,
                    const graph::IncidentLink& b) {
                  if (stale_of(a.neighbor) != stale_of(b.neighbor)) {
                    return stale_of(a.neighbor) < stale_of(b.neighbor);
                  }
                  if (a.neighbor != b.neighbor) return a.neighbor < b.neighbor;
                  return a.edge < b.edge;
                });
    }
    for (const graph::IncidentLink& link : scratch) {
      if (budget <= 0) break;
      if (qu > stale_of(link.neighbor)) {
        out.push_back(core::Transmission{link.edge, u, link.neighbor});
        --budget;
      }
    }
  }
}

// Random multigraph on 1..16 nodes with parallel edges and, often, nodes
// left at degree zero.
graph::Multigraph fuzzed_multigraph(Rng& rng) {
  const auto n = static_cast<NodeId>(rng.uniform_int(1, 16));
  graph::Multigraph g(n);
  if (n < 2) return g;
  const std::int64_t m = rng.uniform_int(0, 3 * static_cast<std::int64_t>(n));
  for (std::int64_t k = 0; k < m; ++k) {
    const auto a = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    const auto b = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    if (a == b) continue;
    const std::int64_t copies = rng.bernoulli(0.3) ? rng.uniform_int(2, 3) : 1;
    for (std::int64_t c = 0; c < copies; ++c) g.add_edge(a, b);
  }
  return g;
}

TEST(StaleLgg, MatchesTheFullSortReferenceOnFuzzedMultigraphs) {
  // Each round drives a fresh protocol and the reference through several
  // steps of fuzzed queues, declarations and edge masks on one graph, so
  // the stale snapshot really lags the current declarations.
  Rng rng(0x57a1eULL);
  int transmissions = 0;
  for (const core::TieBreak tie_break :
       {core::TieBreak::kById, core::TieBreak::kRandomShuffle}) {
    for (int delay = 0; delay <= 3; ++delay) {
      for (int round = 0; round < 60; ++round) {
        const core::SdNetwork net(fuzzed_multigraph(rng));
        const graph::CsrIncidence incidence(net.topology());
        graph::EdgeMask mask(net.topology().edge_count());
        const auto n = static_cast<std::size_t>(net.node_count());
        std::vector<PacketCount> queue(n);
        std::vector<PacketCount> declared(n);
        StaleLggProtocol protocol(delay, tie_break);
        std::deque<std::vector<PacketCount>> history;
        const std::uint64_t seed = rng();
        Rng got_rng(seed);
        Rng want_rng(seed);
        for (TimeStep t = 0; t < 6; ++t) {
          const PacketCount top = rng.uniform_int(1, 10);
          for (std::size_t v = 0; v < n; ++v) {
            queue[v] = rng.uniform_int(0, top);
            declared[v] =
                rng.bernoulli(0.7) ? queue[v] : rng.uniform_int(0, top);
          }
          for (EdgeId e = 0; e < net.topology().edge_count(); ++e) {
            mask.set_active(e, !rng.bernoulli(0.2));
          }
          const core::StepView view{&net,     &incidence,
                                    rng.bernoulli(0.5) ? &mask : nullptr,
                                    queue,    declared,
                                    t,        0,
                                    seed};
          std::vector<core::Transmission> got;
          std::vector<core::Transmission> want;
          protocol.select_transmissions(view, got_rng, got);
          reference_stale_select(delay, tie_break, history, view, want_rng,
                                 want);
          ASSERT_EQ(got, want) << "delay " << delay << " round " << round
                               << " t " << t;
          transmissions += static_cast<int>(got.size());
        }
      }
    }
  }
  EXPECT_GT(transmissions, 1000);
}

}  // namespace
}  // namespace lgg::baselines
