// Equivalence nets for the hot-path rework: the flat epoch-stamped
// link-conflict resolver against the original map-based reference, and the
// incrementally maintained Σq / Σq² counters against a full scan, both on
// fuzzed multigraph configurations.  Also the premise of the step's
// conflict-scan skip: truthful LGG proposals never conflict.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/interference.hpp"
#include "core/profiler.hpp"
#include "core/scenarios.hpp"
#include "core/simulator.hpp"
#include "graph/generators.hpp"
#include "obs/telemetry.hpp"

namespace lgg::core {
namespace {

// The pre-rework resolver, verbatim semantics: first kept use of an edge
// wins unless a later opposite-direction use realizes a larger true queue
// drop (ties: lower from-id).
std::size_t reference_resolve(std::span<const Transmission> txs,
                              std::span<const PacketCount> queue,
                              std::vector<char>& keep) {
  std::map<EdgeId, std::size_t> first_use;
  std::size_t dropped = 0;
  for (std::size_t i = 0; i < txs.size(); ++i) {
    if (!keep[i]) continue;
    const auto [it, inserted] = first_use.emplace(txs[i].edge, i);
    if (inserted) continue;
    const std::size_t j = it->second;
    if (txs[j].from == txs[i].from) continue;
    const auto drop = [&](const Transmission& tx) {
      return queue[static_cast<std::size_t>(tx.from)] -
             queue[static_cast<std::size_t>(tx.to)];
    };
    std::size_t loser;
    if (drop(txs[i]) > drop(txs[j]) ||
        (drop(txs[i]) == drop(txs[j]) && txs[i].from < txs[j].from)) {
      loser = j;
      it->second = i;
    } else {
      loser = i;
    }
    keep[loser] = 0;
    ++dropped;
  }
  return dropped;
}

TEST(ResolveLinkConflicts, MatchesMapReferenceOnFuzzedMultigraphs) {
  Rng rng(0xfeedULL);
  LinkConflictScratch scratch;  // reused across cases: epochs must isolate
  for (int round = 0; round < 200; ++round) {
    const NodeId n = static_cast<NodeId>(rng.uniform_int(2, 12));
    const graph::Multigraph g = graph::make_random_multigraph(
        n, static_cast<EdgeId>(rng.uniform_int(n - 1, 5 * n)),
        0x9000ULL + static_cast<std::uint64_t>(round));
    std::vector<PacketCount> queue(static_cast<std::size_t>(n));
    for (auto& q : queue) q = rng.uniform_int(0, 20);

    // Random transmissions: many duplicate edges, both directions, with a
    // random pre-kill pattern standing in for the interference scheduler.
    const std::int64_t ntx = rng.uniform_int(0, 4 * g.edge_count());
    std::vector<Transmission> txs;
    std::vector<char> keep;
    for (std::int64_t k = 0; k < ntx; ++k) {
      const auto e = static_cast<EdgeId>(
          rng.uniform_int(0, g.edge_count() - 1));
      const auto [u, v] = g.endpoints(e);
      const bool forward = rng.bernoulli(0.5);
      txs.push_back({e, forward ? u : v, forward ? v : u});
      keep.push_back(rng.bernoulli(0.8) ? 1 : 0);
    }

    std::vector<char> keep_fast = keep;
    std::vector<char> keep_ref = keep;
    const std::size_t dropped_fast =
        resolve_link_conflicts(txs, queue, keep_fast, scratch);
    const std::size_t dropped_ref = reference_resolve(txs, queue, keep_ref);
    EXPECT_EQ(keep_fast, keep_ref) << "round " << round;
    EXPECT_EQ(dropped_fast, dropped_ref) << "round " << round;
  }
}

TEST(ResolveLinkConflicts, SurvivesEpochWraparound) {
  // Force the epoch counter to the wraparound edge and check the scratch
  // still isolates calls.
  const graph::Multigraph g = graph::make_fat_path(2, 1);
  const std::vector<PacketCount> queue = {5, 0};
  const std::vector<Transmission> txs = {{0, 0, 1}, {0, 1, 0}};
  LinkConflictScratch scratch;
  scratch.current = std::numeric_limits<std::uint32_t>::max() - 1;
  for (int i = 0; i < 4; ++i) {  // crosses the wrap twice
    std::vector<char> keep = {1, 1};
    EXPECT_EQ(resolve_link_conflicts(txs, queue, keep, scratch), 1u);
    EXPECT_EQ(keep, (std::vector<char>{1, 0}));  // 0→1 drops 5, wins
  }
}

TEST(ResolveLinkConflicts, TruthfulLggProposalsNeverConflict) {
  // The premise of the step's conflict-scan skip (DESIGN.md §5, decision
  // 4): LGG sends u→v only when declared(v) < q(u), so with declared == q
  // no link carries proposals both ways, and the resolver drops nothing
  // whatever the tie-break, the edge mask and the interference scheduler.
  std::vector<std::unique_ptr<Scheduler>> schedulers;
  schedulers.push_back(std::make_unique<NoInterference>());
  schedulers.push_back(std::make_unique<GreedyMatchingScheduler>());
  schedulers.push_back(std::make_unique<ExactMatchingScheduler>());
  schedulers.push_back(std::make_unique<OracleOrGreedyScheduler>());
  schedulers.push_back(std::make_unique<Distance2GreedyScheduler>());
  Rng rng(0xd0a1ULL);
  LinkConflictScratch scratch;
  std::size_t proposed = 0;
  std::size_t kept = 0;
  for (int round = 0; round < 200; ++round) {
    const NodeId n = static_cast<NodeId>(rng.uniform_int(2, 12));
    const SdNetwork net(graph::make_random_multigraph(
        n, static_cast<EdgeId>(rng.uniform_int(n - 1, 5 * n)),
        0xa000ULL + static_cast<std::uint64_t>(round)));
    const graph::CsrIncidence incidence(net.topology());
    graph::EdgeMask mask(net.topology().edge_count());
    for (EdgeId e = 0; e < mask.size(); ++e) {
      if (rng.bernoulli(0.3)) mask.set_active(e, false);
    }
    // Small queues, so equal neighbours (ties) are common.
    std::vector<PacketCount> queue(static_cast<std::size_t>(n));
    for (auto& q : queue) q = rng.uniform_int(0, 6);
    StepView view;
    view.net = &net;
    view.incidence = &incidence;
    view.active = rng.bernoulli(0.25) ? nullptr : &mask;
    view.queue = queue;
    view.declared = queue;
    view.t = round;
    view.draw_seed = derive_seed(0xd0a1ULL, static_cast<std::uint64_t>(round));
    for (const TieBreak tie_break :
         {TieBreak::kById, TieBreak::kRandomShuffle}) {
      LggProtocol lgg(tie_break);
      std::vector<Transmission> txs;
      Rng select_rng(static_cast<std::uint64_t>(round));
      lgg.select_transmissions(view, select_rng, txs);
      proposed += txs.size();
      for (const auto& scheduler : schedulers) {
        std::vector<char> keep(txs.size(), 1);
        Rng schedule_rng(static_cast<std::uint64_t>(round) + 1);
        scheduler->schedule(view, txs, schedule_rng, keep);
        kept += static_cast<std::size_t>(
            std::count(keep.begin(), keep.end(), 1));
        EXPECT_EQ(resolve_link_conflicts(txs, queue, keep, scratch), 0u)
            << "round " << round << ", scheduler " << scheduler->name();
      }
    }
  }
  EXPECT_GT(proposed, 1000u);  // the property is not vacuous
  EXPECT_GT(kept, proposed);
}

// Full-scan reference for the incremental counters.
void expect_counters_match_scan(const Simulator& sim) {
  PacketCount total = 0;
  double state = 0.0;
  for (const PacketCount q : sim.queues()) {
    total += q;
    state += static_cast<double>(q) * static_cast<double>(q);
  }
  EXPECT_EQ(sim.total_packets(), total);
  EXPECT_DOUBLE_EQ(sim.network_state(), state);
}

TEST(IncrementalCounters, MatchFullScanOnFuzzedConfigurations) {
  for (std::uint64_t master = 0; master < 12; ++master) {
    Rng rng(master);
    const NodeId n = static_cast<NodeId>(rng.uniform_int(3, 16));
    graph::Multigraph g = graph::make_random_multigraph(
        n, static_cast<EdgeId>(rng.uniform_int(n - 1, 4 * n)),
        master * 31 + 7);
    SdNetwork net(std::move(g));
    net.set_source(0, rng.uniform_int(1, 3));
    net.set_sink(n - 1, rng.uniform_int(1, 3));
    if (rng.bernoulli(0.5)) {
      net.set_generalized(n / 2, 1, 1, rng.uniform_int(0, 5));
    }

    SimulatorOptions options;
    options.seed = derive_seed(master, 2);
    options.declaration_policy =
        static_cast<DeclarationPolicy>(rng.uniform_int(0, 3));
    options.extraction_policy =
        static_cast<ExtractionPolicy>(rng.uniform_int(0, 2));
    Simulator sim(net, options);
    if (rng.bernoulli(0.4)) {
      sim.set_loss(std::make_unique<BernoulliLoss>(0.2));
    }
    if (rng.bernoulli(0.4)) {
      FaultSchedule churn;
      churn.set_random_churn({0.1, 0.3, {}});
      sim.set_faults(std::make_unique<FaultInjector>(std::move(churn)));
    }
    sim.set_initial_queue(static_cast<NodeId>(rng.uniform_int(0, n - 1)),
                          rng.uniform_int(0, 40));
    expect_counters_match_scan(sim);
    for (int chunk = 0; chunk < 5; ++chunk) {
      sim.run(40);
      expect_counters_match_scan(sim);
      EXPECT_TRUE(sim.conserves_packets());
    }
  }
}

TEST(IncrementalCounters, TrackSeededInitialQueues) {
  const SdNetwork net = scenarios::single_path(4, 1, 1);
  Simulator sim(net);
  sim.set_initial_queue(1, 7);
  sim.set_initial_queue(2, 3);
  sim.set_initial_queue(1, 2);  // overwrite must not double-count
  EXPECT_EQ(sim.total_packets(), 5);
  EXPECT_DOUBLE_EQ(sim.network_state(), 4.0 + 9.0);
  expect_counters_match_scan(sim);
}

TEST(IncrementalCounters, SquareDeltaIsTheDifferenceOfSquares) {
  // Every mutation's ΔP goes through square_delta: it must equal the
  // two-square difference it replaced, up to 63-bit queues and for both
  // signs of δ, and its low 64 bits must be the drift term.
  constexpr PacketCount kTop = std::numeric_limits<PacketCount>::max();
  const PacketCount queues[] = {0, 1, 7, PacketCount{1} << 31,
                                PacketCount{1} << 32, PacketCount{1} << 62,
                                kTop - 64, kTop};
  for (const PacketCount q : queues) {
    for (const PacketCount delta :
         {PacketCount{-64}, PacketCount{-1}, PacketCount{0}, PacketCount{1},
          PacketCount{64}, -q, kTop - q}) {
      if (delta > kTop - q || q + delta < 0) continue;
      const detail::QuadAccum dp = detail::square_delta(q, delta);
      EXPECT_EQ(dp, detail::square(q + delta) - detail::square(q))
          << q << " " << delta;
      const auto uq = static_cast<std::uint64_t>(q);
      const auto ud = static_cast<std::uint64_t>(delta);
      EXPECT_EQ(static_cast<std::uint64_t>(dp), ud * (2 * uq + ud));
    }
  }
}

detail::QuadAccum exact_square_sum(std::span<const PacketCount> queues) {
  detail::QuadAccum sum = 0;
  for (const PacketCount q : queues) sum += detail::square(q);
  return sum;
}

TEST(IncrementalCounters, SquareSumStaysExactForQueuesNearTwoToThe62) {
  // Loss-apply adds ΔP = ±(2q ± 1) as 64-bit terms to the 128-bit Σq².
  // Two adjacent queues near 2^62 (Σq just below 2^63) send to each other
  // and to small relays under Bernoulli loss, beside a unit source and
  // sink; after every step Σq² must
  // equal a recomputation from the queues, detached and armed (where each
  // mutation's term is also recorded as drift).  network_state() is a
  // double, so exactness is checked through a checkpoint restore, which
  // recomputes Σq² from the queues and rejects a mismatch bit for bit.
  constexpr PacketCount kBig = PacketCount{1} << 62;
  graph::Multigraph g(6);
  for (const auto [a, b] : {std::pair{0, 1}, {0, 1}, {0, 1}, {0, 2}, {1, 2},
                            {1, 3}, {1, 3}, {2, 4}, {3, 5}, {4, 5}}) {
    g.add_edge(a, b);
  }
  SdNetwork net(std::move(g));
  net.set_source(5, 1);  // eight steps inject 8 packets: Σq stays < 2^63
  net.set_sink(4, 1);
  obs::TelemetryOptions topts;
  topts.snapshot_every = 2;
  for (const bool armed : {false, true}) {
    std::ostringstream stream;
    obs::OstreamJsonlSink sink(stream);
    const auto build = [&](obs::Telemetry* telemetry) {
      SimulatorOptions options;
      options.seed = 0x62;
      auto sim = std::make_unique<Simulator>(net, options);
      sim->set_loss(std::make_unique<BernoulliLoss>(0.3));
      if (telemetry != nullptr) {
        telemetry->set_sink(&sink);
        sim->set_telemetry(telemetry);
      }
      return sim;
    };
    obs::Telemetry telemetry(topts);
    const std::unique_ptr<Simulator> sim = build(armed ? &telemetry : nullptr);
    sim->set_initial_queue(0, kBig + 5);
    sim->set_initial_queue(1, kBig - 40);
    PacketCount delivered = 0;
    PacketCount lost = 0;
    for (int t = 0; t < 8; ++t) {
      const detail::QuadAccum before = exact_square_sum(sim->queues());
      const StepStats stats = sim->step();
      delivered += stats.delivered;
      lost += stats.lost;
      const detail::QuadAccum after = exact_square_sum(sim->queues());
      EXPECT_EQ(sim->network_state(), static_cast<double>(after))
          << "armed " << armed << ", step " << t;
      if (armed) {
        EXPECT_EQ(static_cast<std::uint64_t>(telemetry.drift().step_drift()),
                  static_cast<std::uint64_t>(after - before))
            << "step " << t;
      }
      std::stringstream blob(std::ios::in | std::ios::out | std::ios::binary);
      sim->save_checkpoint(blob);
      obs::Telemetry twin_telemetry(topts);
      const std::unique_ptr<Simulator> twin =
          build(armed ? &twin_telemetry : nullptr);
      EXPECT_NO_THROW(twin->restore_checkpoint(blob))
          << "armed " << armed << ", step " << t;
    }
    EXPECT_GE(sim->queues()[0], kBig - 40);  // still near 2^62
    EXPECT_GE(sim->queues()[1], kBig - 80);
    EXPECT_GT(delivered, 0);
    EXPECT_GT(lost, 0);
    EXPECT_TRUE(sim->conserves_packets());
  }
}

TEST(StepProfiler, AccumulatesPhaseTimesAndCounters) {
  const SdNetwork net = scenarios::fat_path(4, 3, 1, 3);
  Simulator sim(net);
  StepProfiler profiler;
  sim.set_profiler(&profiler);
  sim.run(50);
  EXPECT_EQ(profiler.steps(), 50u);
  EXPECT_GT(profiler.total_nanos(), 0u);
  EXPECT_GT(profiler.steps_per_second(), 0.0);
  // The phase work counters mirror the cumulative step stats.
  const CumulativeStats& totals = sim.cumulative();
  EXPECT_EQ(profiler.phase(StepPhase::kInjection).items,
            static_cast<std::uint64_t>(totals.injected));
  EXPECT_EQ(profiler.phase(StepPhase::kSelection).items,
            static_cast<std::uint64_t>(totals.proposed));
  EXPECT_EQ(profiler.phase(StepPhase::kLossApply).items,
            static_cast<std::uint64_t>(totals.sent));
  EXPECT_EQ(profiler.phase(StepPhase::kExtraction).items,
            static_cast<std::uint64_t>(totals.extracted));
  const std::string json = profiler.json();
  EXPECT_NE(json.find("\"steps\":50"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"extraction\""), std::string::npos);
  profiler.reset();
  EXPECT_EQ(profiler.steps(), 0u);
  EXPECT_EQ(profiler.total_nanos(), 0u);
}

TEST(StepProfiler, DetachingStopsAccumulation) {
  const SdNetwork net = scenarios::single_path(3, 1, 1);
  Simulator sim(net);
  StepProfiler profiler;
  sim.set_profiler(&profiler);
  sim.run(5);
  sim.set_profiler(nullptr);
  sim.run(5);
  EXPECT_EQ(profiler.steps(), 5u);
}

TEST(RoleIndex, TracksMutationsInAscendingOrder) {
  graph::Multigraph g = graph::make_path(5);
  SdNetwork net(std::move(g));
  net.set_sink(4, 2);
  net.set_source(0, 1);
  net.set_generalized(2, 1, 1, 3);
  EXPECT_EQ(net.sources(), (std::vector<NodeId>{0, 2}));
  EXPECT_EQ(net.sinks(), (std::vector<NodeId>{2, 4}));
  EXPECT_EQ(net.retention_nodes(), (std::vector<NodeId>{2}));
  net.clear_role(2);
  EXPECT_EQ(net.sources(), (std::vector<NodeId>{0}));
  EXPECT_EQ(net.sinks(), (std::vector<NodeId>{4}));
  EXPECT_TRUE(net.retention_nodes().empty());
  net.set_sink(0, 1);  // role change: source -> sink
  EXPECT_TRUE(net.sources().empty());
  EXPECT_EQ(net.sinks(), (std::vector<NodeId>{0, 4}));
}

}  // namespace
}  // namespace lgg::core
