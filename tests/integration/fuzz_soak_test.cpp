// Randomized soak: generate arbitrary configurations (topology, roles,
// components, policies) and run them with the transmission contract
// checked every step.  Whatever the configuration, the simulator must
// conserve packets and never violate a contract.  This is the fuzzing net
// under all the targeted tests.
#include <gtest/gtest.h>

#include "lgg.hpp"

namespace lgg {
namespace {

core::SdNetwork random_network(Rng& rng, std::uint64_t seed) {
  const NodeId n = static_cast<NodeId>(rng.uniform_int(2, 14));
  graph::Multigraph g = graph::make_random_multigraph(
      n, static_cast<EdgeId>(rng.uniform_int(n - 1, 4 * n)), seed);
  core::SdNetwork net(std::move(g));
  // 1-3 sources, 1-3 sinks, possibly overlapping/generalized.
  const int nsrc = static_cast<int>(rng.uniform_int(1, 3));
  const int nsink = static_cast<int>(rng.uniform_int(1, 3));
  for (int i = 0; i < nsrc; ++i) {
    const auto v = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    const Cap in = rng.uniform_int(1, 3);
    const core::NodeSpec& old = net.spec(v);
    net.set_generalized(v, in, old.out,
                        rng.bernoulli(0.3) ? rng.uniform_int(0, 8) : 0);
  }
  for (int i = 0; i < nsink; ++i) {
    const auto v = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    const Cap out = rng.uniform_int(1, 3);
    const core::NodeSpec& old = net.spec(v);
    const Cap in = old.in;
    net.set_generalized(v, in, out, old.retention);
  }
  if (net.sources().empty()) net.set_source(0, 1);
  if (net.sinks().empty()) net.set_sink(n - 1, 1);
  return net;
}

std::unique_ptr<core::RoutingProtocol> random_protocol(Rng& rng) {
  const auto names = baselines::protocol_names();
  return baselines::make_protocol(
      names[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(names.size()) - 1))]);
}

// Latency-safe fault schedules only: the LatencyTracker observer below
// reconstructs per-packet history from queue balances, so a wipe-mode
// crash (packets destroyed in place) would be misread as an extraction.
// Freeze crashes, sink outages, surges, and byzantine declarations all
// keep the ledger consistent with the tracker's model.
core::FaultSchedule random_faults(Rng& rng, const core::SdNetwork& net) {
  core::FaultSchedule schedule;
  if (rng.bernoulli(0.5)) {
    schedule.set_random_crashes({0.01,
                                 rng.uniform_int(1, 4),
                                 rng.uniform_int(5, 15),
                                 core::CrashMode::kFreeze});
  }
  if (rng.bernoulli(0.4)) {
    const auto& sinks = net.sinks();
    const auto d = sinks[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(sinks.size()) - 1))];
    schedule.add({core::FaultKind::kSinkOutage, d, rng.uniform_int(0, 100),
                  rng.uniform_int(1, 40), core::CrashMode::kFreeze, 0, 0});
  }
  if (rng.bernoulli(0.4)) {
    const auto& sources = net.sources();
    const auto s = sources[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(sources.size()) - 1))];
    schedule.add({core::FaultKind::kSourceSurge, s, rng.uniform_int(0, 100),
                  rng.uniform_int(1, 30), core::CrashMode::kFreeze,
                  rng.uniform_int(1, 4), 0});
  }
  if (rng.bernoulli(0.4)) {
    const auto v =
        static_cast<NodeId>(rng.uniform_int(0, net.node_count() - 1));
    schedule.add({core::FaultKind::kByzantine, v, rng.uniform_int(0, 100),
                  rng.uniform_int(1, 100), core::CrashMode::kFreeze, 0,
                  rng.uniform_int(0, 50)});
  }
  return schedule;
}

class FuzzSoak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSoak, RandomConfigurationConservesAndHonoursContracts) {
  const std::uint64_t master = GetParam();
  Rng rng(master);
  core::SdNetwork net = random_network(rng, master * 7919 + 13);

  core::SimulatorOptions options;
  options.seed = derive_seed(master, 1);
  options.check_contract = true;
  options.declaration_policy =
      static_cast<core::DeclarationPolicy>(rng.uniform_int(0, 3));
  options.extraction_policy =
      static_cast<core::ExtractionPolicy>(rng.uniform_int(0, 2));
  options.extraction_basis = rng.bernoulli(0.5)
                                 ? core::ExtractionBasis::kPostTransmit
                                 : core::ExtractionBasis::kSnapshot;
  options.link_conflict = rng.bernoulli(0.5)
                              ? core::LinkConflictPolicy::kDropLower
                              : core::LinkConflictPolicy::kAllowBoth;
  core::Simulator sim(net, options, random_protocol(rng));

  switch (rng.uniform_int(0, 4)) {
    case 0: sim.set_arrival(std::make_unique<core::BernoulliArrival>(0.5)); break;
    case 1: sim.set_arrival(std::make_unique<core::UniformArrival>(0.7)); break;
    case 2: sim.set_arrival(std::make_unique<core::BurstArrival>(2.0, 0.0, 2, 5)); break;
    case 3: sim.set_arrival(std::make_unique<core::TokenBucketArrival>(0.7, 10.0, 4)); break;
    default: break;  // exact
  }
  switch (rng.uniform_int(0, 3)) {
    case 0: sim.set_loss(std::make_unique<core::BernoulliLoss>(0.2)); break;
    case 1: sim.set_loss(std::make_unique<core::PeriodicLoss>(5)); break;
    case 2: sim.set_loss(std::make_unique<core::MaxGradientLoss>(2)); break;
    default: break;  // none
  }
  switch (rng.uniform_int(0, 2)) {
    case 0: sim.set_scheduler(std::make_unique<core::GreedyMatchingScheduler>()); break;
    case 1: sim.set_scheduler(std::make_unique<core::Distance2GreedyScheduler>()); break;
    default: break;  // none
  }
  const bool churn = rng.bernoulli(0.4);
  core::FaultSchedule faults;
  if (rng.bernoulli(0.5)) faults = random_faults(rng, net);
  if (churn) faults.set_random_churn({0.1, 0.4, {}});
  if (!faults.empty()) {
    sim.set_faults(std::make_unique<core::FaultInjector>(
        faults, derive_seed(master, 2)));
  }
  // Random initial queues exercise non-empty starts.
  for (NodeId v = 0; v < net.node_count(); ++v) {
    if (rng.bernoulli(0.3)) {
      sim.set_initial_queue(v, rng.uniform_int(0, 20));
    }
  }

  core::LatencyTracker latency;
  sim.set_observer(&latency);
  sim.run(300);

  EXPECT_TRUE(sim.conserves_packets()) << "master seed " << master;
  EXPECT_EQ(sim.cumulative().sent,
            sim.cumulative().delivered + sim.cumulative().lost);
  EXPECT_EQ(latency.stats().delivered, sim.cumulative().extracted);
  EXPECT_EQ(latency.stats().lost, sim.cumulative().lost);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSoak,
                         ::testing::Range<std::uint64_t>(0, 40));

TEST(FaultRecovery, StateReentersLemma1BoundAfterTransientBurst) {
  // Lemma 1's bound n Y² + 5 n Δ² is an invariant of the unsaturated
  // regime, not of a particular start state: once a transient fault burst
  // ends, the drift of Property 2 must pull P_t back inside the bound and
  // keep it there.  Hit an unsaturated fat path with a simultaneous
  // freeze-crash of the relay, a sink outage, and a source surge, then
  // check the trajectory recovers to its pre-burst operating level.
  const core::SdNetwork net = core::scenarios::fat_path(3, 3, 1, 3);
  const auto report = core::analyze(net);
  ASSERT_TRUE(report.unsaturated);
  const core::UnsaturatedBounds bounds =
      core::unsaturated_bounds(net, report);

  core::SimulatorOptions options;
  options.seed = 4242;
  core::Simulator sim(net, options);
  core::FaultSchedule schedule;
  constexpr TimeStep kBurstStart = 500;
  constexpr TimeStep kBurstLen = 200;
  schedule.add({core::FaultKind::kCrash, 1, kBurstStart, kBurstLen,
                core::CrashMode::kFreeze, 0, 0});
  schedule.add({core::FaultKind::kSinkOutage, 2, kBurstStart, kBurstLen,
                core::CrashMode::kFreeze, 0, 0});
  schedule.add({core::FaultKind::kSourceSurge, 0, kBurstStart, kBurstLen,
                core::CrashMode::kFreeze, 3, 0});
  sim.set_faults(std::make_unique<core::FaultInjector>(schedule, 9));

  constexpr TimeStep kHorizon = 6000;
  core::MetricsRecorder recorder;
  sim.run(kHorizon, &recorder);
  EXPECT_TRUE(sim.conserves_packets());

  const auto& state = recorder.network_state();
  ASSERT_EQ(state.size(), static_cast<std::size_t>(kHorizon));
  const double pre_burst_max = *std::max_element(
      state.begin(), state.begin() + kBurstStart);
  const double burst_peak = *std::max_element(
      state.begin() + kBurstStart, state.begin() + 2 * kBurstStart);
  // The burst must actually bite: backlog piles up well past the normal
  // operating level while the relay is frozen and the sink is out.
  EXPECT_GT(burst_peak, 4.0 * pre_burst_max + 100.0);

  // Post-recovery suffix: back inside Lemma 1's bound, for good.
  constexpr TimeStep kSettled = 3000;
  for (std::size_t t = kSettled; t < state.size(); ++t) {
    ASSERT_LE(state[t], bounds.state) << "step " << t;
  }
  const double tail_max = *std::max_element(
      state.begin() + kSettled, state.end());
  // And not just inside the (loose) worst-case bound — the trajectory
  // returns to its pre-burst operating level.
  EXPECT_LE(tail_max, pre_burst_max * 1.5 + 10.0);
}

TEST(Soak, LongHorizonSaturatedInstancesStayBounded) {
  // 20k-step soak on the saturated regimes the theory cares most about.
  struct Case {
    const char* label;
    core::SdNetwork net;
  };
  std::vector<Case> cases;
  cases.push_back({"K33", core::scenarios::saturated_at_dstar(3)});
  cases.push_back({"barbell", core::scenarios::barbell_bottleneck(3, 1, 2)});
  cases.push_back({"path", core::scenarios::single_path(6, 1, 1)});
  for (auto& c : cases) {
    core::SimulatorOptions options;
    options.seed = 31337;
    core::Simulator sim(c.net, options);
    core::MetricsRecorder recorder;
    sim.run(20000, &recorder);
    const auto report = core::assess_stability(recorder.network_state());
    EXPECT_EQ(report.verdict, core::Verdict::kStable) << c.label;
    // Boundedness, concretely: the max over the whole run equals the max
    // over the first quarter (no slow creep).
    const auto& state = recorder.network_state();
    const double early_max = *std::max_element(
        state.begin(), state.begin() + static_cast<std::ptrdiff_t>(5000));
    EXPECT_LE(report.max_state, early_max * 1.5 + 10.0) << c.label;
  }
}

}  // namespace
}  // namespace lgg
