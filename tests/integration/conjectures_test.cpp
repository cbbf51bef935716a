// Empirical evidence for Conjectures 1–5 (Sections V–VI).
#include <gtest/gtest.h>

#include <map>

#include "analysis/stats.hpp"
#include "analysis/timeseries.hpp"
#include "core/scenarios.hpp"
#include "support/test_helpers.hpp"

namespace lgg::core {
namespace {

using lgg::testing::run_lgg;

MetricsRecorder run_with_arrival(const SdNetwork& net,
                                 std::unique_ptr<ArrivalProcess> arrival,
                                 TimeStep steps, std::uint64_t seed) {
  SimulatorOptions options;
  options.seed = seed;
  Simulator sim(net, options);
  sim.set_arrival(std::move(arrival));
  MetricsRecorder recorder;
  sim.run(steps, &recorder);
  return recorder;
}

// ---------------------------------------------------------------- Conj. 1

TEST(Conjecture1, DominatedArrivalsKeepDominatedLongRunState) {
  // Saturated network; in'_t <= in_t pointwise (a trace with every third
  // injection removed).  Conjecture 1 predicts the thinned system stays
  // stable and no heavier than the full one in the long run.
  const SdNetwork net = scenarios::saturated_at_dstar(2);
  std::map<NodeId, std::vector<PacketCount>> full, thinned;
  for (const NodeId s : net.sources()) {
    for (TimeStep t = 0; t < 3000; ++t) {
      full[s].push_back(1);
      thinned[s].push_back(t % 3 == 2 ? 0 : 1);
    }
  }
  const auto ref = run_with_arrival(
      net, std::make_unique<TraceArrival>(full), 3000, 11);
  const auto dom = run_with_arrival(
      net, std::make_unique<TraceArrival>(thinned), 3000, 11);
  EXPECT_EQ(assess_stability(dom.network_state()).verdict, Verdict::kStable);
  const double ref_tail =
      analysis::summarize(
          analysis::tail(std::span<const double>(ref.network_state()), 0.25))
          .mean;
  const double dom_tail =
      analysis::summarize(
          analysis::tail(std::span<const double>(dom.network_state()), 0.25))
          .mean;
  EXPECT_LE(dom_tail, ref_tail + 1.0);
}

TEST(Conjecture1, LossSweepNeverDestabilizesFeasibleNetwork) {
  const SdNetwork net = scenarios::saturated_at_dstar(3);
  for (const double p : {0.0, 0.1, 0.3, 0.5}) {
    SimulatorOptions options;
    options.seed = 21;
    Simulator sim(net, options);
    sim.set_loss(std::make_unique<BernoulliLoss>(p));
    MetricsRecorder recorder;
    sim.run(2500, &recorder);
    EXPECT_EQ(assess_stability(recorder.network_state()).verdict,
              Verdict::kStable)
        << "p=" << p;
  }
}

TEST(Conjecture1, TargetedAdversaryCannotDestabilizeEither) {
  // Adversarial losses on the saturated bottleneck: packets vanish but the
  // stored state stays bounded (losses only remove work).
  const SdNetwork net = scenarios::barbell_bottleneck(3, 1, 2);
  std::vector<char> side_a(static_cast<std::size_t>(net.node_count()), 0);
  for (NodeId v = 0; v < 3; ++v) side_a[static_cast<std::size_t>(v)] = 1;
  SimulatorOptions options;
  options.seed = 31;
  Simulator sim(net, options);
  sim.set_loss(std::make_unique<TargetedCutLoss>(side_a, 1));
  MetricsRecorder recorder;
  sim.run(2500, &recorder);
  EXPECT_EQ(assess_stability(recorder.network_state()).verdict,
            Verdict::kStable);
}

// ---------------------------------------------------------------- Conj. 2

TEST(Conjecture2, CompensatedBurstsAreStable) {
  // Bursts of 3x the feasible rate followed by silence; average factor 0.9
  // of a rate with margin: stable.
  const SdNetwork net = scenarios::fat_path(4, 3, 2, 3);  // f* = 3, in = 2
  // burst: 3 steps at factor 1.5 (rate 3 = f*), 3 steps at 0: average 0.75.
  const auto recorder = run_with_arrival(
      net, std::make_unique<BurstArrival>(1.5, 0.0, 3, 6), 4000, 13);
  EXPECT_EQ(assess_stability(recorder.network_state()).verdict,
            Verdict::kStable);
}

TEST(Conjecture2, UncompensatedBurstsDiverge) {
  // Bursts average strictly above f*: divergence.
  const SdNetwork net = scenarios::fat_path(4, 3, 2, 3);  // f* = 3
  // 4 steps at factor 2 (rate 4), 2 steps at rate 2: average 3.33 > 3.
  const auto recorder = run_with_arrival(
      net, std::make_unique<BurstArrival>(2.0, 1.0, 4, 6), 4000, 13);
  EXPECT_EQ(assess_stability(recorder.network_state()).verdict,
            Verdict::kDiverging);
}

TEST(Conjecture2, ExactlyCriticalAverageStaysBounded) {
  // Average exactly f* with compensation intervals: the conjecture's edge.
  const SdNetwork net = scenarios::fat_path(3, 2, 2, 2);  // f* = 2, in = 2
  // 1 step at factor 1.5 (3 pkts), 2 steps at 0.75 (1.5 -> rounds 2,1...):
  // keep it integral: 2 steps at 2 (factor 1), forever — trivially at f*.
  const auto recorder = run_with_arrival(
      net, std::make_unique<BurstArrival>(1.5, 0.5, 1, 2), 5000, 13);
  // Average = 1.0 * in = f*: bounded (possibly large) per Conjecture 2.
  EXPECT_NE(assess_stability(recorder.network_state()).verdict,
            Verdict::kDiverging);
}

// ---------------------------------------------------------------- Conj. 3

TEST(Conjecture3, UniformBelowCutIsStable) {
  const SdNetwork net = scenarios::fat_path(4, 4, 2, 4);  // f* = 4, in = 2
  // Uniform on [0, 2·0.8·2]: mean 1.6 < 4.
  const auto recorder = run_with_arrival(
      net, std::make_unique<UniformArrival>(0.8), 4000, 7);
  EXPECT_EQ(assess_stability(recorder.network_state()).verdict,
            Verdict::kStable);
}

TEST(Conjecture3, UniformAboveCutDiverges) {
  const SdNetwork net = scenarios::fat_path(4, 2, 2, 2);  // f* = 2, in = 2
  // Mean 1.5 * 2 = 3 > 2.
  const auto recorder = run_with_arrival(
      net, std::make_unique<UniformArrival>(1.5), 4000, 7);
  EXPECT_EQ(assess_stability(recorder.network_state()).verdict,
            Verdict::kDiverging);
}

TEST(Conjecture3, SeveralSeedsAgreeNearTheThreshold) {
  const SdNetwork net = scenarios::fat_path(3, 3, 2, 3);  // f* = 3
  int stable_below = 0;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const auto recorder = run_with_arrival(
        net, std::make_unique<UniformArrival>(0.6), 3000, seed);  // mean 1.2
    if (assess_stability(recorder.network_state()).verdict ==
        Verdict::kStable) {
      ++stable_below;
    }
  }
  EXPECT_EQ(stable_below, 4);
}

// ---------------------------------------------------------------- Conj. 4

TEST(Conjecture4, FeasibilityPreservingChurnIsStable) {
  // Protect one parallel lane end-to-end (enough for in = 1); churn the
  // rest aggressively.
  const SdNetwork net = scenarios::fat_path(4, 3, 1, 3);
  std::vector<EdgeId> protected_edges;
  for (EdgeId e = 0; e < net.topology().edge_count(); e += 3) {
    protected_edges.push_back(e);  // first lane of each hop
  }
  SimulatorOptions options;
  options.seed = 19;
  Simulator sim(net, options);
  FaultSchedule churn;
  churn.set_random_churn({0.3, 0.3, protected_edges});
  sim.set_faults(std::make_unique<FaultInjector>(std::move(churn)));
  MetricsRecorder recorder;
  sim.run(4000, &recorder);
  EXPECT_EQ(assess_stability(recorder.network_state()).verdict,
            Verdict::kStable);
  EXPECT_TRUE(sim.conserves_packets());
}

TEST(Conjecture4, TotalOutageDiverges) {
  // Churn that kills every edge permanently: packets pile up at sources.
  const SdNetwork net = scenarios::fat_path(3, 2, 1, 2);
  SimulatorOptions options;
  options.seed = 19;
  Simulator sim(net, options);
  FaultSchedule churn;
  churn.set_random_churn({1.0, 0.0, {}});
  sim.set_faults(std::make_unique<FaultInjector>(std::move(churn)));
  MetricsRecorder recorder;
  sim.run(1200, &recorder);
  EXPECT_EQ(assess_stability(recorder.network_state()).verdict,
            Verdict::kDiverging);
}

// ---------------------------------------------------------------- Conj. 5

TEST(Conjecture5, OracleSchedulerKeepsSmallNetworkStable) {
  // Node-exclusive interference with the exact max-weight-matching oracle;
  // the interference-feasible rate is lower, so inject sparsely.
  const SdNetwork net = scenarios::fat_path(3, 2, 1, 2);
  SimulatorOptions options;
  options.seed = 3;
  Simulator sim(net, options);
  sim.set_arrival(std::make_unique<ScaledArrival>(0.25));
  sim.set_scheduler(std::make_unique<ExactMatchingScheduler>());
  MetricsRecorder recorder;
  sim.run(3000, &recorder);
  EXPECT_EQ(assess_stability(recorder.network_state()).verdict,
            Verdict::kStable);
}

TEST(Conjecture5, GreedySchedulerComparableOnLargerNetwork) {
  const SdNetwork net = scenarios::grid_flow(3, 4, 1, 2);
  SimulatorOptions options;
  options.seed = 3;
  Simulator sim(net, options);
  sim.set_arrival(std::make_unique<ScaledArrival>(0.3));
  sim.set_scheduler(std::make_unique<GreedyMatchingScheduler>());
  MetricsRecorder recorder;
  sim.run(3000, &recorder);
  EXPECT_EQ(assess_stability(recorder.network_state()).verdict,
            Verdict::kStable);
}

TEST(Conjecture5, InterferenceWithFullRateOverloads) {
  // Matching constraint halves the path's service rate: full-rate
  // injection that was feasible without interference now diverges.
  const SdNetwork net = scenarios::single_path(4, 1, 1);
  SimulatorOptions options;
  options.seed = 3;
  Simulator sim(net, options);
  sim.set_scheduler(std::make_unique<GreedyMatchingScheduler>());
  MetricsRecorder recorder;
  sim.run(2500, &recorder);
  EXPECT_EQ(assess_stability(recorder.network_state()).verdict,
            Verdict::kDiverging);
}

}  // namespace
}  // namespace lgg::core
