// Trajectory equivalence of the shard engine: for every fixture in the
// matrix and every (shards, threads) pair, a sharded run must be BITWISE
// identical to the serial run — per-step potentials, final queues,
// cumulative ledgers, the telemetry JSONL byte stream (which embeds drift
// attribution and the flight recorder), and the final checkpoint bytes.
// Any divergence — a draw keyed off the wrong address, a reduction folded
// in thread order, a node mutated out of serial order — fails here
// exactly, not statistically.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/protocol_registry.hpp"
#include "control/governor.hpp"
#include "lgg.hpp"
#include "traffic/adversary.hpp"

namespace lgg {
namespace {

constexpr TimeStep kHorizon = 120;

struct Fixture {
  std::string name;
  core::SdNetwork (*network)();
  void (*configure)(core::Simulator&);
  bool governed = false;  ///< attach an AdmissionGovernor
  /// baselines::make_protocol name; nullptr runs the default LGG.
  const char* protocol = nullptr;
  bool observed = false;  ///< attach a StepObserver and compare its records
};

core::SdNetwork stochastic_net() { return core::scenarios::grid_single(4, 5); }
core::SdNetwork fault_net() {
  return core::scenarios::barbell_bottleneck(3, 1, 2);
}
core::SdNetwork plain_net() { return core::scenarios::fat_path(4, 2, 2, 2); }
core::SdNetwork lying_net() {
  // Retention nodes so kRandom declarations actually draw.
  return core::scenarios::generalize(core::scenarios::grid_single(3, 4), 2);
}

void configure_plain(core::Simulator&) {}

void configure_stochastic(core::Simulator& sim) {
  sim.set_arrival(std::make_unique<core::BernoulliArrival>(0.7));
  sim.set_loss(std::make_unique<core::BernoulliLoss>(0.1));
  core::FaultSchedule churn;
  churn.set_random_churn({0.03, 0.3, {}});
  sim.set_faults(std::make_unique<core::FaultInjector>(std::move(churn)));
}

void configure_faults(core::Simulator& sim) {
  sim.set_arrival(std::make_unique<core::BernoulliArrival>(0.8));
  sim.set_loss(std::make_unique<core::BernoulliLoss>(0.05));
  core::FaultSchedule schedule;
  schedule.set_random_crashes({0.03, 1, 6, core::CrashMode::kWipe});
  sim.set_faults(std::make_unique<core::FaultInjector>(schedule, 0xFA));
}

void configure_governed(core::Simulator& sim) {
  sim.set_arrival(std::make_unique<core::UniformArrival>(1.5));
}

void configure_stateful_arrival(core::Simulator& sim) {
  // TokenBucketArrival keeps cross-step balances in flat per-node slots;
  // a sharded run must still match the serial trajectory bitwise.
  sim.set_arrival(std::make_unique<core::TokenBucketArrival>(0.7, 8.0, 3));
  sim.set_loss(std::make_unique<core::PeriodicLoss>(7));
}

void configure_leaky(core::Simulator& sim) {
  sim.set_arrival(std::make_unique<core::LeakyBucketArrival>(0.9, 12.0));
  sim.set_loss(std::make_unique<core::BernoulliLoss>(0.05));
}

void configure_pareto(core::Simulator& sim) {
  sim.set_arrival(std::make_unique<core::ParetoArrival>(2.5, 1.0));
}

void configure_diurnal(core::Simulator& sim) {
  sim.set_arrival(std::make_unique<core::DiurnalArrival>(1.2, 0.6, 40));
}

void configure_adversary(core::Simulator& sim) {
  // Queue-aware targeting reads the live queue snapshot, so any engine
  // skew in that snapshot diverges the byte streams here.
  traffic::AdversaryOptions opt;
  opt.strategy = traffic::AdversaryStrategy::kQueueAware;
  opt.rho = 1.2;
  opt.sigma = 24.0;
  opt.period = 8;
  opt.fanout = 3;
  sim.set_arrival(std::make_unique<traffic::AdversarialArrival>(opt));
  sim.set_loss(std::make_unique<core::BernoulliLoss>(0.05));
}

/// Scheduled topology churn: every mutation kind fires inside kHorizon, so
/// sharded selection over a plan built from the base graph, the churn
/// flight events, and the v5 spec section all land in the bitwise
/// comparison.  Random crashes ride along to exercise the overlay +
/// down-window interplay.
core::FaultSchedule churn_schedule(const core::SdNetwork& net) {
  const NodeId source = net.sources().front();
  const NodeId sink = net.sinks().back();
  core::FaultSchedule schedule;
  schedule.add({.kind = core::FaultKind::kEdgeRemove, .at = 15, .edge = 1});
  schedule.add({.kind = core::FaultKind::kNodeLeave, .node = sink, .at = 25});
  schedule.add({.kind = core::FaultKind::kCapacityNudge, .node = source,
                .at = 35, .din = 1});
  schedule.add({.kind = core::FaultKind::kNodeJoin, .node = sink, .at = 60});
  schedule.add({.kind = core::FaultKind::kEdgeAdd, .at = 70, .edge = 1});
  schedule.add({.kind = core::FaultKind::kCapacityNudge, .node = source,
                .at = 90, .din = -1});
  return schedule;
}

void configure_scheduled_churn(core::Simulator& sim) {
  sim.set_arrival(std::make_unique<core::BernoulliArrival>(0.8));
  core::FaultSchedule schedule = churn_schedule(sim.network());
  schedule.set_random_crashes({0.02, 1, 5, core::CrashMode::kWipe});
  schedule.validate_strict(sim.network());
  sim.set_faults(std::make_unique<core::FaultInjector>(schedule, 0xC7));
}

void configure_governed_churn(core::Simulator& sim) {
  // Governed + churn: the incremental certificate patches on every
  // topology version bump; its gauges land in the telemetry byte stream,
  // so any serial/sharded divergence in patch accounting fails here too.
  sim.set_arrival(std::make_unique<core::UniformArrival>(1.5));
  core::FaultSchedule schedule = churn_schedule(sim.network());
  schedule.validate_strict(sim.network());
  sim.set_faults(std::make_unique<core::FaultInjector>(schedule, 0xC8));
}

const std::vector<Fixture>& fixtures() {
  static const std::vector<Fixture> kFixtures = {
      {"plain-lgg", plain_net, configure_plain, false},
      {"stochastic-churn", stochastic_net, configure_stochastic, false},
      {"faults", fault_net, configure_faults, false},
      {"governed", stochastic_net, configure_governed, true},
      {"stateful-arrival", stochastic_net, configure_stateful_arrival,
       false},
      {"leaky-arrival", stochastic_net, configure_leaky, false},
      {"pareto-arrival", stochastic_net, configure_pareto, false},
      {"diurnal-arrival", stochastic_net, configure_diurnal, false},
      {"adversary-queue-aware", stochastic_net, configure_adversary, false},
      {"scheduled-churn", stochastic_net, configure_scheduled_churn, false},
      {"governed-churn", stochastic_net, configure_governed_churn, true},
      // Random walk selects globally, so the shard engine must fall back to
      // serial selection.
      {"random-walk", stochastic_net, configure_stochastic, false,
       "random_walk"},
      // The observer's records alias pre_injection_, snapshot_ and the
      // declarations, so engine skew in any of them fails here.
      {"observed", stochastic_net, configure_stochastic, false, nullptr,
       true},
  };
  return kFixtures;
}

struct RunResult {
  std::string telemetry;   ///< full JSONL byte stream
  std::string checkpoint;  ///< final checkpoint bytes
  std::string records;     ///< every StepRecord, flattened (observed runs)
  std::vector<double> potential;
  std::vector<PacketCount> queues;
  core::CumulativeStats totals;
};

/// Flattens every StepRecord it sees into one comparable string.
class RecordingObserver final : public core::StepObserver {
 public:
  explicit RecordingObserver(std::string& out) : out_(out) {}

  void on_step(const core::StepRecord& r) override {
    std::ostringstream os;
    const auto put = [&os](const char* name, const auto& span) {
      os << name << ':';
      for (const auto x : span) os << ' ' << static_cast<std::int64_t>(x);
      os << '\n';
    };
    os << "t=" << r.t << '\n';
    put("before_injection", r.before_injection);
    put("at_selection", r.at_selection);
    put("declared", r.declared);
    put("after_step", r.after_step);
    put("kept", r.kept);
    put("lost", r.lost);
    os << "transmissions:";
    for (const core::Transmission& tx : r.transmissions) {
      os << ' ' << tx.from << '>' << tx.to << '@' << tx.edge;
    }
    os << "\nstats: " << r.stats.injected << ' ' << r.stats.proposed << ' '
       << r.stats.suppressed << ' ' << r.stats.conflicted << ' '
       << r.stats.sent << ' ' << r.stats.lost << ' ' << r.stats.delivered
       << ' ' << r.stats.extracted << ' ' << r.stats.crash_wiped << ' '
       << r.stats.shed << '\n';
    out_ += os.str();
  }

 private:
  std::string& out_;
};

RunResult run_fixture(const Fixture& fx, std::uint32_t shards,
                      std::size_t threads,
                      core::DeclarationPolicy declarations =
                          core::DeclarationPolicy::kTruthful) {
  core::SimulatorOptions options;
  options.seed = 0x51AB;
  options.declaration_policy = declarations;
  core::Simulator sim(fx.network(), options,
                      fx.protocol != nullptr
                          ? baselines::make_protocol(fx.protocol)
                          : nullptr);
  fx.configure(sim);
  std::unique_ptr<control::AdmissionGovernor> governor;
  if (fx.governed) {
    governor = std::make_unique<control::AdmissionGovernor>(sim.network());
    sim.set_admission(governor.get());
  }

  obs::TelemetryOptions topts;
  topts.snapshot_every = 10;
  topts.flight_capacity = 64;
  topts.hotspot_k = 3;  // top-K lines ride the byte stream being compared
  obs::Telemetry telemetry(topts);
  std::ostringstream stream;
  obs::OstreamJsonlSink sink(stream);
  telemetry.set_sink(&sink);
  sim.set_telemetry(&telemetry);

  // Span tracing attaches to the sharded runs only: spans are timing-only,
  // so a traced sharded run must still be byte-identical to the untraced
  // serial reference — tracing can never perturb the trajectory.
  core::StepProfiler tracer(std::size_t{1} << 14);
  if (shards > 1 || threads > 1) {
    sim.enable_sharding(shards, threads);
    sim.set_profiler(&tracer);
  }
  EXPECT_EQ(sim.shard_count(), shards > 1 || threads > 1 ? shards : 1u);

  RunResult result;
  RecordingObserver observer(result.records);
  if (fx.observed) sim.set_observer(&observer);
  core::MetricsRecorder recorder;
  sim.run(kHorizon, &recorder);
  result.potential.assign(recorder.network_state().begin(),
                          recorder.network_state().end());
  result.queues.assign(sim.queues().begin(), sim.queues().end());
  result.totals = sim.cumulative();
  result.telemetry = stream.str();
  std::ostringstream blob(std::ios::binary);
  sim.save_checkpoint(blob);
  result.checkpoint = blob.str();
  EXPECT_TRUE(sim.conserves_packets());
  return result;
}

void expect_bitwise_equal(const RunResult& serial, const RunResult& sharded) {
  ASSERT_EQ(serial.potential.size(), sharded.potential.size());
  for (std::size_t i = 0; i < serial.potential.size(); ++i) {
    ASSERT_EQ(serial.potential[i], sharded.potential[i]) << "step " << i;
  }
  ASSERT_EQ(serial.queues, sharded.queues);
  EXPECT_EQ(serial.totals.injected, sharded.totals.injected);
  EXPECT_EQ(serial.totals.proposed, sharded.totals.proposed);
  EXPECT_EQ(serial.totals.suppressed, sharded.totals.suppressed);
  EXPECT_EQ(serial.totals.conflicted, sharded.totals.conflicted);
  EXPECT_EQ(serial.totals.sent, sharded.totals.sent);
  EXPECT_EQ(serial.totals.lost, sharded.totals.lost);
  EXPECT_EQ(serial.totals.delivered, sharded.totals.delivered);
  EXPECT_EQ(serial.totals.extracted, sharded.totals.extracted);
  EXPECT_EQ(serial.totals.crash_wiped, sharded.totals.crash_wiped);
  EXPECT_EQ(serial.totals.shed, sharded.totals.shed);
  EXPECT_EQ(serial.telemetry, sharded.telemetry) << "telemetry bytes differ";
  EXPECT_EQ(serial.checkpoint, sharded.checkpoint)
      << "checkpoint bytes differ";
  EXPECT_EQ(serial.records, sharded.records) << "step records differ";
}

TEST(ShardEquivalence, BitwiseIdenticalAcrossShardAndThreadMatrix) {
  for (const Fixture& fx : fixtures()) {
    SCOPED_TRACE(fx.name);
    const RunResult serial = run_fixture(fx, 1, 1);
    ASSERT_FALSE(serial.telemetry.empty());
    ASSERT_EQ(serial.records.empty(), !fx.observed);
    for (const std::uint32_t shards : {2u, 4u, 8u}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE("shards=" + std::to_string(shards) +
                     " threads=" + std::to_string(threads));
        expect_bitwise_equal(serial, run_fixture(fx, shards, threads));
      }
    }
  }
}

TEST(ShardEquivalence, RandomDeclarationsMatchUnderSharding) {
  // kRandom declarations draw per retention node; the addressed streams
  // must line up between the serial loop and the sharded engine.
  const Fixture fx{"lying", lying_net, configure_stochastic, false};
  const RunResult serial =
      run_fixture(fx, 1, 1, core::DeclarationPolicy::kRandom);
  for (const std::uint32_t shards : {2u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    expect_bitwise_equal(
        serial, run_fixture(fx, shards, 4, core::DeclarationPolicy::kRandom));
  }
}

TEST(ShardEquivalence, SnapshotExtractionBasisMatches) {
  core::SimulatorOptions options;
  options.seed = 9;
  options.extraction_basis = core::ExtractionBasis::kSnapshot;
  const auto run = [&options](std::uint32_t shards) {
    core::Simulator sim(core::scenarios::grid_single(4, 4), options);
    sim.set_arrival(std::make_unique<core::PoissonArrival>(1.3));
    if (shards > 1) sim.enable_sharding(shards, 4);
    sim.run(kHorizon);
    return std::vector<PacketCount>(sim.queues().begin(),
                                          sim.queues().end());
  };
  const auto serial = run(1);
  EXPECT_EQ(serial, run(3));
  EXPECT_EQ(serial, run(8));
}

TEST(ShardEquivalence, MoreShardsThanNodesStillExact) {
  const Fixture fx{"tiny", plain_net, configure_stochastic, false};
  const RunResult serial = run_fixture(fx, 1, 1);
  expect_bitwise_equal(serial, run_fixture(fx, 64, 4));
}

TEST(ShardEquivalence, EnableDisableMidRunIsSeamless) {
  // Addressed draws make the engines interchangeable between steps: a run
  // that flips sharding on and off mid-flight matches the serial run.
  const auto run_flipping = [](bool flip) {
    core::SimulatorOptions options;
    options.seed = 0xD1CE;
    core::Simulator sim(stochastic_net(), options);
    configure_stochastic(sim);
    for (int leg = 0; leg < 4; ++leg) {
      if (flip && leg % 2 == 1) {
        sim.enable_sharding(4, 2);
      } else if (flip) {
        sim.disable_sharding();
      }
      sim.run(kHorizon / 4);
    }
    return std::vector<PacketCount>(sim.queues().begin(),
                                          sim.queues().end());
  };
  EXPECT_EQ(run_flipping(false), run_flipping(true));
}

TEST(ShardEquivalence, CheckpointResumeAcrossEngines) {
  // Satellite 3: a checkpoint taken mid-run resumes bitwise-identically
  // whether the producer and consumer are serial or sharded (any K); the
  // v4 blob carries only (seed, step), no engine state.
  constexpr TimeStep kBreak = 53;
  const auto build = [] {
    core::SimulatorOptions options;
    options.seed = 0xBEA7;
    auto sim = std::make_unique<core::Simulator>(fault_net(), options);
    configure_faults(*sim);
    return sim;
  };

  auto reference = build();
  reference->run(kHorizon);
  const std::vector<PacketCount> want(reference->queues().begin(),
                                            reference->queues().end());

  for (const std::uint32_t save_shards : {1u, 8u}) {
    for (const std::uint32_t resume_shards : {1u, 8u}) {
      SCOPED_TRACE("save K=" + std::to_string(save_shards) + " resume K=" +
                   std::to_string(resume_shards));
      auto first = build();
      if (save_shards > 1) first->enable_sharding(save_shards, 4);
      first->run(kBreak);
      std::stringstream blob(std::ios::in | std::ios::out |
                             std::ios::binary);
      first->save_checkpoint(blob);

      auto resumed = build();
      if (resume_shards > 1) resumed->enable_sharding(resume_shards, 4);
      resumed->restore_checkpoint(blob);
      ASSERT_EQ(resumed->now(), kBreak);
      resumed->run(kHorizon - kBreak);
      const std::vector<PacketCount> got(resumed->queues().begin(),
                                               resumed->queues().end());
      EXPECT_EQ(got, want);
      EXPECT_TRUE(resumed->conserves_packets());
    }
  }
}

TEST(ShardEquivalence, MidChurnResumeAcrossEnginesMatchesSerial) {
  // Break at t=40: edge 1 is removed, the sink has departed, and a nudge
  // has shifted a source's rate — all of it must ride the v5 spec section
  // and the injector blob so any engine can resume the trajectory exactly.
  constexpr TimeStep kBreak = 40;
  const auto build = [] {
    core::SimulatorOptions options;
    options.seed = 0xC0DE;
    auto sim = std::make_unique<core::Simulator>(stochastic_net(), options);
    configure_scheduled_churn(*sim);
    return sim;
  };

  auto reference = build();
  reference->run(kHorizon);
  const std::vector<PacketCount> want(reference->queues().begin(),
                                      reference->queues().end());

  for (const std::uint32_t save_shards : {1u, 8u}) {
    for (const std::uint32_t resume_shards : {1u, 8u}) {
      SCOPED_TRACE("save K=" + std::to_string(save_shards) + " resume K=" +
                   std::to_string(resume_shards));
      auto first = build();
      if (save_shards > 1) first->enable_sharding(save_shards, 4);
      first->run(kBreak);
      ASSERT_FALSE(first->edge_mask().all_active());
      std::stringstream blob(std::ios::in | std::ios::out |
                             std::ios::binary);
      first->save_checkpoint(blob);

      auto resumed = build();
      if (resume_shards > 1) resumed->enable_sharding(resume_shards, 4);
      resumed->restore_checkpoint(blob);
      ASSERT_EQ(resumed->now(), kBreak);
      resumed->run(kHorizon - kBreak);
      const std::vector<PacketCount> got(resumed->queues().begin(),
                                         resumed->queues().end());
      EXPECT_EQ(got, want);
      EXPECT_TRUE(resumed->conserves_packets());
    }
  }
}

TEST(ShardEquivalence, ResumeUnderDifferentCliSeedAdoptsSavedSeed) {
  // The v4 RNG section is the master seed; restore adopts it, so resuming
  // with a different --seed still replays the original trajectory.
  core::SimulatorOptions saved_options;
  saved_options.seed = 0xAAAA;
  core::Simulator first(plain_net(), saved_options);
  first.run(40);
  std::stringstream blob(std::ios::in | std::ios::out | std::ios::binary);
  first.save_checkpoint(blob);

  core::SimulatorOptions other_options;
  other_options.seed = 0xBBBB;
  core::Simulator resumed(plain_net(), other_options);
  resumed.restore_checkpoint(blob);
  first.run(40);
  resumed.run(40);
  EXPECT_TRUE(std::equal(first.queues().begin(), first.queues().end(),
                         resumed.queues().begin()));
}

/// Proposes one transmission across `edge` from an endpoint whose queue is
/// empty, breaking the at-most-queue[u]-sends contract.
class EmptySenderProtocol final : public core::RoutingProtocol {
 public:
  explicit EmptySenderProtocol(EdgeId edge) : edge_(edge) {}
  [[nodiscard]] std::string_view name() const override {
    return "empty-sender";
  }
  void select_transmissions(const core::StepView& view, Rng&,
                            std::vector<core::Transmission>& out) override {
    const auto ends = view.net->topology().endpoints(edge_);
    const bool from_v = view.queue[static_cast<std::size_t>(ends.v)] == 0;
    out.push_back({edge_, from_v ? ends.v : ends.u, from_v ? ends.u : ends.v});
  }

 private:
  EdgeId edge_;
};

TEST(ShardEquivalence, ContractBreachLeavesCountersTrueToQueues) {
  // A send from an empty queue throws from the loss-apply pass.  On every
  // engine the throw must leave total_packets() and network_state() equal
  // to a full scan of the queues, and the queues equal to the serial
  // engine's: no packet may arrive for a send that never left.
  const core::SdNetwork net = core::scenarios::single_path(6);
  for (EdgeId e = 0; e < net.topology().edge_count(); ++e) {
    std::vector<PacketCount> serial_queues;
    for (const std::uint32_t shards : {1u, 2u, 4u}) {
      SCOPED_TRACE("edge=" + std::to_string(e) +
                   " shards=" + std::to_string(shards));
      core::Simulator sim(net, {}, std::make_unique<EmptySenderProtocol>(e));
      if (shards > 1) sim.enable_sharding(shards, 2);
      EXPECT_THROW(sim.step(), ContractViolation);
      PacketCount sum = 0;
      double sum_sq = 0;
      for (const PacketCount q : sim.queues()) {
        sum += q;
        sum_sq += static_cast<double>(q) * static_cast<double>(q);
      }
      EXPECT_EQ(sim.total_packets(), sum);
      EXPECT_EQ(sim.network_state(), sum_sq);
      const std::vector<PacketCount> queues(sim.queues().begin(),
                                            sim.queues().end());
      if (shards == 1) {
        serial_queues = queues;
      } else {
        EXPECT_EQ(queues, serial_queues);
      }
    }
  }
}

/// Every node with packets sends all of them towards its higher-id
/// neighbour, then node 0 — which nobody sends to — sends once more from
/// its drained queue, so the throw comes after a run of deliveries and
/// losses.
class OverdrawProtocol final : public core::RoutingProtocol {
 public:
  [[nodiscard]] std::string_view name() const override { return "overdraw"; }
  void select_transmissions(const core::StepView& view, Rng&,
                            std::vector<core::Transmission>& out) override {
    const graph::Multigraph& g = view.net->topology();
    EdgeId first_link = kInvalidEdge;
    for (NodeId u = 0; u < g.node_count(); ++u) {
      for (const graph::IncidentLink link : g.incident(u)) {
        if (link.neighbor <= u) continue;
        if (u == 0) first_link = link.edge;
        for (PacketCount k = 0; k < view.queue[static_cast<std::size_t>(u)];
             ++k) {
          out.push_back({link.edge, u, link.neighbor});
        }
        break;
      }
    }
    out.push_back({first_link, 0, 1});
  }
};

TEST(ShardEquivalence, ArmedContractBreachLeavesDriftSettled) {
  // The armed variant of ContractBreachLeavesCountersTrueToQueues: when
  // the loss-apply pass throws, the drift attribution must already cover
  // every mutation applied before it.  Per node, the step's contributions
  // telescope to q_now² − q_start²; per cause, the node rows sum to the
  // step's by-cause totals.
  const core::SdNetwork net = core::scenarios::single_path(6);
  for (const std::uint32_t shards : {1u, 2u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    core::SimulatorOptions options;
    options.seed = 0xB4EAC;
    core::Simulator sim(net, options, std::make_unique<OverdrawProtocol>());
    sim.set_loss(std::make_unique<core::BernoulliLoss>(0.3));
    for (NodeId v = 0; v < net.node_count(); ++v) {
      sim.set_initial_queue(v, 3 + v);
    }
    if (shards > 1) sim.enable_sharding(shards, 2);
    obs::TelemetryOptions topts;
    topts.flight_capacity = 16;
    topts.hotspot_k = 2;
    obs::Telemetry telemetry(topts);
    sim.set_telemetry(&telemetry);
    const std::vector<PacketCount> start(sim.queues().begin(),
                                         sim.queues().end());
    EXPECT_THROW(sim.step(), ContractViolation);
    const obs::DriftAttributor& drift = telemetry.drift();
    std::int64_t dp = 0;
    for (std::size_t v = 0; v < start.size(); ++v) {
      const std::int64_t now = sim.queues()[v];
      const std::int64_t want = now * now - start[v] * start[v];
      EXPECT_EQ(drift.node_drift(static_cast<NodeId>(v)), want) << v;
      dp += want;
    }
    EXPECT_EQ(drift.step_drift(), dp);
    for (std::size_t c = 0; c < obs::kDriftCauseCount; ++c) {
      const auto cause = static_cast<obs::DriftCause>(c);
      std::int64_t rows = 0;
      for (NodeId v = 0; v < net.node_count(); ++v) {
        rows += drift.node_drift(v, cause);
      }
      EXPECT_EQ(rows, drift.step_drift(cause)) << obs::to_string(cause);
    }
    EXPECT_NE(drift.step_drift(obs::DriftCause::kForwarding), 0);
    EXPECT_NE(drift.step_drift(obs::DriftCause::kLoss), 0);
  }
}

TEST(ShardEquivalence, OldCheckpointVersionRejectedByName) {
  // Satellite 3: v3 (serialized RNG stream) blobs are not silently
  // misread — the error names both the found and the expected version.
  core::Simulator sim(plain_net());
  sim.run(10);
  std::ostringstream os(std::ios::binary);
  sim.save_checkpoint(os);
  std::string bytes = os.str();
  // The version u32 sits right after the 8-byte magic (little endian).
  ASSERT_GT(bytes.size(), 12u);
  ASSERT_EQ(static_cast<unsigned char>(bytes[8]), core::kCheckpointVersion);
  bytes[8] = 3;
  std::istringstream is(bytes, std::ios::binary);
  core::Simulator victim(plain_net());
  try {
    victim.restore_checkpoint(is);
    FAIL() << "v3 checkpoint was accepted";
  } catch (const core::CheckpointError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("version 3"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(core::kCheckpointVersion)),
              std::string::npos)
        << what;
  }
}

}  // namespace
}  // namespace lgg
