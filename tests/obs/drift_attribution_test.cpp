// The drift attributor's core invariant (satellite of the telemetry
// layer): every queue mutation contributes δ(2q+δ) to ΔP_t, so per node
// the recorded contributions telescope to q_{t+1}(v)² − q_t(v)², and
// summed over nodes — or equivalently over causes — they equal
// P_{t+1} − P_t *exactly*, every single step.  This must survive every
// registered protocol, losses, link churn, interference conflicts, wipe
// crashes, source surges, and sink outages simultaneously.
#include <gtest/gtest.h>

#include <random>
#include <unordered_set>
#include <vector>

#include "lgg.hpp"

namespace lgg {
namespace {

constexpr TimeStep kHorizon = 150;

constexpr obs::DriftCause kAllCauses[] = {
    obs::DriftCause::kInjection,  obs::DriftCause::kForwarding,
    obs::DriftCause::kLoss,       obs::DriftCause::kExtraction,
    obs::DriftCause::kCrashWiped,
};

std::int64_t potential_of(std::span<const PacketCount> queues) {
  std::int64_t p = 0;
  for (const PacketCount q : queues) p += static_cast<std::int64_t>(q) * q;
  return p;
}

core::SdNetwork test_network() {
  return core::scenarios::barbell_bottleneck(3, 1, 2);
}

/// Every mutation source the simulator has, active at once.
std::unique_ptr<core::Simulator> build(const std::string& protocol,
                                       bool with_faults,
                                       std::uint64_t seed) {
  const core::SdNetwork net = test_network();
  core::SimulatorOptions options;
  options.seed = seed;
  auto sim = std::make_unique<core::Simulator>(
      net, options, baselines::make_protocol(protocol));
  sim->set_arrival(std::make_unique<core::BernoulliArrival>(0.8));
  sim->set_loss(std::make_unique<core::BernoulliLoss>(0.1));
  core::FaultSchedule schedule;
  schedule.set_random_churn({0.05, 0.4, {}});
  if (with_faults) {
    schedule.set_random_crashes({0.03, 1, 8, core::CrashMode::kWipe});
    core::FaultEvent surge;
    surge.kind = core::FaultKind::kSourceSurge;
    surge.node = net.sources().front();
    surge.at = 20;
    surge.duration = 15;
    surge.extra = 3;
    schedule.add(surge);
    core::FaultEvent outage;
    outage.kind = core::FaultKind::kSinkOutage;
    outage.node = net.sinks().front();
    outage.at = 60;
    outage.duration = 25;
    schedule.add(outage);
  }
  sim->set_faults(std::make_unique<core::FaultInjector>(schedule, 0xFA));
  return sim;
}

void expect_exact_attribution(const std::string& protocol, bool with_faults,
                              std::uint64_t seed) {
  SCOPED_TRACE(protocol + (with_faults ? "+faults" : "") + " seed=" +
               std::to_string(seed));
  obs::TelemetryOptions topts;
  topts.flight_capacity = 16;  // arms the session without needing a sink
  obs::Telemetry telemetry(topts);

  auto sim = build(protocol, with_faults, seed);
  sim->set_telemetry(&telemetry);
  const obs::DriftAttributor& drift = telemetry.drift();

  std::vector<PacketCount> before(sim->queues().begin(),
                                  sim->queues().end());
  for (TimeStep step = 0; step < kHorizon; ++step) {
    sim->run(1);
    const auto after = sim->queues();
    ASSERT_EQ(after.size(), before.size());

    // Per node, the recorded mutations telescope to the exact change in
    // that node's q² — no matter how many times the queue moved within
    // the step or why.
    std::int64_t dp = 0;
    for (std::size_t v = 0; v < after.size(); ++v) {
      const std::int64_t expected =
          static_cast<std::int64_t>(after[v]) * after[v] -
          static_cast<std::int64_t>(before[v]) * before[v];
      ASSERT_EQ(drift.node_drift(static_cast<NodeId>(v)), expected)
          << "node " << v << " at step " << step;
      dp += expected;
    }

    // Summed over nodes == summed over causes == ΔP_t, exactly.
    ASSERT_EQ(drift.step_drift(), dp) << "step " << step;
    ASSERT_EQ(dp, potential_of(after) - potential_of(before));
    std::int64_t by_cause = 0;
    for (const obs::DriftCause cause : kAllCauses) {
      by_cause += drift.step_drift(cause);
    }
    ASSERT_EQ(by_cause, dp) << "step " << step;

    // Every node whose queue changed must have been touched.
    std::unordered_set<NodeId> touched;
    drift.for_each_touched([&touched](NodeId v) { touched.insert(v); });
    for (std::size_t v = 0; v < after.size(); ++v) {
      if (after[v] != before[v]) {
        EXPECT_TRUE(touched.count(static_cast<NodeId>(v)) > 0)
            << "node " << v << " changed but was not attributed, step "
            << step;
      }
    }
    before.assign(after.begin(), after.end());
  }
}

TEST(DriftAttribution, ExactForEveryRegisteredProtocol) {
  for (const auto& name : baselines::protocol_names()) {
    expect_exact_attribution(std::string(name), /*with_faults=*/false,
                             0xBEEF);
  }
}

TEST(DriftAttribution, ExactUnderFaultsLossesAndChurn) {
  for (const auto& name : baselines::protocol_names()) {
    expect_exact_attribution(std::string(name), /*with_faults=*/true,
                             0xBEEF);
  }
}

TEST(DriftAttribution, ExactAcrossRandomSeeds) {
  std::mt19937_64 rng(2026);
  for (int i = 0; i < 5; ++i) {
    expect_exact_attribution("lgg", /*with_faults=*/true, rng());
  }
}

TEST(DriftAttribution, CauseSignsMatchTheirSemantics) {
  // Injections only ever grow a queue (δ = +1 ⇒ δ(2q+δ) > 0); losses,
  // extractions, and wipes only ever shrink one (δ < 0 on q ≥ |δ|).
  obs::TelemetryOptions topts;
  topts.flight_capacity = 16;
  obs::Telemetry telemetry(topts);
  auto sim = build("lgg", /*with_faults=*/true, 0xCAFE);
  sim->set_telemetry(&telemetry);
  sim->run(kHorizon);
  const obs::DriftAttributor& drift = telemetry.drift();
  EXPECT_GT(drift.total_drift(obs::DriftCause::kInjection), 0);
  EXPECT_LE(drift.total_drift(obs::DriftCause::kLoss), 0);
  EXPECT_LE(drift.total_drift(obs::DriftCause::kExtraction), 0);
  EXPECT_LE(drift.total_drift(obs::DriftCause::kCrashWiped), 0);
}

TEST(DriftAttribution, StatefulComponentStackStaysExact) {
  // TokenBucket arrivals, periodic loss, and StaleLgg's declaration lag
  // drive a different mutation mix through the same invariant.
  obs::TelemetryOptions topts;
  topts.flight_capacity = 16;
  obs::Telemetry telemetry(topts);
  core::SimulatorOptions options;
  options.seed = 0xCAFE;
  auto sim = std::make_unique<core::Simulator>(
      test_network(), options,
      std::make_unique<baselines::StaleLggProtocol>(3));
  sim->set_arrival(std::make_unique<core::TokenBucketArrival>(0.7, 10.0, 4));
  sim->set_loss(std::make_unique<core::PeriodicLoss>(5));
  sim->set_telemetry(&telemetry);

  std::vector<PacketCount> before(sim->queues().begin(),
                                  sim->queues().end());
  for (TimeStep step = 0; step < kHorizon; ++step) {
    sim->run(1);
    const auto after = sim->queues();
    ASSERT_EQ(telemetry.drift().step_drift(),
              potential_of(after) - potential_of(before))
        << "step " << step;
    before.assign(after.begin(), after.end());
  }
}

/// Replays every step literally, one queue mutation at a time, from the
/// StepRecord and the previous step's end state: wipes take the start
/// queue to before_injection, injections take it to at_selection, the kept
/// transmissions fire in list order (a lost packet's sender decrement is
/// kLoss, a delivered packet's two moves kForwarding), and extraction takes
/// the result to after_step.  Each move's δ(2q+δ) lands on (node, cause);
/// the attributor must report exactly those sums for every node and cause.
class MutationReplay final : public core::StepObserver {
 public:
  MutationReplay(const obs::DriftAttributor& drift,
                 std::span<const PacketCount> start)
      : drift_(drift), start_(start.begin(), start.end()) {}

  void on_step(const core::StepRecord& r) override {
    const std::size_t n = start_.size();
    std::vector<std::int64_t> want(n * obs::kDriftCauseCount, 0);
    const auto add = [&](std::size_t v, obs::DriftCause cause,
                         std::int64_t from, std::int64_t to) {
      want[v * obs::kDriftCauseCount + static_cast<std::size_t>(cause)] +=
          to * to - from * from;
    };
    for (std::size_t v = 0; v < n; ++v) {
      add(v, obs::DriftCause::kCrashWiped, start_[v], r.before_injection[v]);
      add(v, obs::DriftCause::kInjection, r.before_injection[v],
          r.at_selection[v]);
    }
    std::vector<PacketCount> q(r.at_selection.begin(), r.at_selection.end());
    for (std::size_t i = 0; i < r.transmissions.size(); ++i) {
      if (!r.kept[i]) continue;
      const auto from = static_cast<std::size_t>(r.transmissions[i].from);
      const auto to = static_cast<std::size_t>(r.transmissions[i].to);
      add(from,
          r.lost[i] ? obs::DriftCause::kLoss : obs::DriftCause::kForwarding,
          q[from], q[from] - 1);
      --q[from];
      if (r.lost[i]) continue;
      add(to, obs::DriftCause::kForwarding, q[to], q[to] + 1);
      ++q[to];
    }
    for (std::size_t v = 0; v < n; ++v) {
      ASSERT_LE(r.after_step[v], q[v]) << "node " << v << " at t=" << r.t;
      add(v, obs::DriftCause::kExtraction, q[v], r.after_step[v]);
    }
    for (std::size_t v = 0; v < n; ++v) {
      for (const obs::DriftCause cause : kAllCauses) {
        ASSERT_EQ(drift_.node_drift(static_cast<NodeId>(v), cause),
                  want[v * obs::kDriftCauseCount +
                       static_cast<std::size_t>(cause)])
            << "node " << v << " cause " << obs::to_string(cause)
            << " at t=" << r.t;
      }
    }
    for (std::size_t v = 0; v < n; ++v) {
      lost_dp_ += want[v * obs::kDriftCauseCount +
                       static_cast<std::size_t>(obs::DriftCause::kLoss)];
      wiped_dp_ += want[v * obs::kDriftCauseCount +
                        static_cast<std::size_t>(obs::DriftCause::kCrashWiped)];
    }
    start_.assign(r.after_step.begin(), r.after_step.end());
    ++steps_;
  }

  [[nodiscard]] TimeStep steps() const { return steps_; }
  [[nodiscard]] std::int64_t lost_dp() const { return lost_dp_; }
  [[nodiscard]] std::int64_t wiped_dp() const { return wiped_dp_; }

 private:
  const obs::DriftAttributor& drift_;
  std::vector<PacketCount> start_;
  TimeStep steps_ = 0;
  std::int64_t lost_dp_ = 0;
  std::int64_t wiped_dp_ = 0;
};

TEST(DriftAttribution, PerCauseSplitMatchesPerMutationReplay) {
  struct Case {
    const char* name;
    std::unique_ptr<core::LossModel> (*loss)();
    bool wipes;
  };
  const Case cases[] = {
      {"bernoulli0.2",
       []() -> std::unique_ptr<core::LossModel> {
         return std::make_unique<core::BernoulliLoss>(0.2);
       },
       false},
      {"periodic3",
       []() -> std::unique_ptr<core::LossModel> {
         return std::make_unique<core::PeriodicLoss>(3);
       },
       false},
      {"bernoulli0.2+wipes",
       []() -> std::unique_ptr<core::LossModel> {
         return std::make_unique<core::BernoulliLoss>(0.2);
       },
       true},
  };
  for (const Case& c : cases) {
    for (const std::uint32_t shards : {1u, 2u}) {
      SCOPED_TRACE(std::string(c.name) + " shards=" + std::to_string(shards));
      // 150 nodes span three touched-set words.
      const core::SdNetwork net =
          core::scenarios::random_unsaturated(150, 600, 3, 3, 41);
      core::SimulatorOptions options;
      options.seed = 0xD21F7;
      core::Simulator sim(net, options);
      sim.set_arrival(std::make_unique<core::BernoulliArrival>(0.9));
      sim.set_loss(c.loss());
      if (c.wipes) {
        core::FaultSchedule schedule;
        schedule.set_random_crashes({0.01, 2, 6, core::CrashMode::kWipe});
        sim.set_faults(std::make_unique<core::FaultInjector>(schedule, 0xFA));
      }
      if (shards > 1) sim.enable_sharding(shards, 2);
      obs::TelemetryOptions topts;
      topts.flight_capacity = 16;
      topts.hotspot_k = 4;
      obs::Telemetry telemetry(topts);
      sim.set_telemetry(&telemetry);
      MutationReplay replay(telemetry.drift(), sim.queues());
      sim.set_observer(&replay);
      for (TimeStep t = 0; t < kHorizon; ++t) {
        sim.step();
        if (HasFatalFailure()) return;
      }
      EXPECT_EQ(replay.steps(), kHorizon);
      EXPECT_LT(replay.lost_dp(), 0);  // losses did fire
      if (c.wipes) {
        EXPECT_LT(replay.wiped_dp(), 0);  // and so did wipes
      }
    }
  }
}

}  // namespace
}  // namespace lgg
