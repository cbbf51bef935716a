// StepProfiler contracts.  Aggregation: serial phases account wall == CPU;
// shard-parallel phases account the fan-out→join wall and the summed
// shard CPU.  The aggregation bug this guards against is summing
// per-shard wall times into the wall column, which would inflate a step's
// apparent cost K-fold under K shards.  Span rings: lane overwrite
// semantics, lane growth, Chrome trace-event export, and the
// zero-perturbation guarantee when a profiler rides a live simulator (the
// bitwise half of which is pinned by the ShardEquivalence suite).
#include "core/profiler.hpp"

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/arrival.hpp"
#include "core/scenarios.hpp"
#include "core/simulator.hpp"

namespace lgg::core {
namespace {

using std::chrono::nanoseconds;

constexpr std::array<StepPhase, kStepPhaseCount> kAllPhases = {
    StepPhase::kDynamics,   StepPhase::kInjection, StepPhase::kDeclaration,
    StepPhase::kSelection,  StepPhase::kScheduling, StepPhase::kConflict,
    StepPhase::kLossApply,  StepPhase::kExtraction,
};

SpanRecord make_span(std::uint64_t step, StepPhase phase,
                     std::uint16_t shard = kSerialShard) {
  SpanRecord span;
  span.step = step;
  span.t_start_nanos = step * 100;
  span.dur_nanos = 10;
  span.phase = phase;
  span.shard = shard;
  return span;
}

/// A profiled 50-step run of the 4×4 grid, serial (shards = 0) or on the
/// shard engine with 2 threads.
std::unique_ptr<Simulator> profiled_run(StepProfiler& prof,
                                        std::uint32_t shards) {
  auto sim = std::make_unique<Simulator>(scenarios::grid_single(4, 4));
  if (shards > 0) sim->enable_sharding(shards, 2);
  sim->set_profiler(&prof);
  sim->run(50);
  return sim;
}

TEST(StepProfiler, SerialRecordCountsWallAsCpu) {
  StepProfiler prof;
  prof.ensure_lanes(1);
  const auto t0 = StepProfiler::Clock::now();
  prof.begin_step(0, t0);
  prof.lap(StepPhase::kSelection, 7, t0 + nanoseconds(1000));
  prof.begin_step(1, t0 + nanoseconds(5000));
  prof.lap(StepPhase::kSelection, 3, t0 + nanoseconds(5500));
  const PhaseTotals t = prof.phase(StepPhase::kSelection);
  EXPECT_EQ(t.nanos, 1500u);
  EXPECT_EQ(t.cpu_nanos, 1500u);
  EXPECT_EQ(t.items, 10u);
}

TEST(StepProfiler, ParallelRecordSplitsWallFromCpu) {
  // Four shards, slowest 800 ns, total shard busy time 2000 ns: the step
  // waited 800 ns (wall), the cores burned 2000 ns (CPU).
  StepProfiler prof;
  prof.ensure_lanes(5);
  const auto t0 = StepProfiler::Clock::now();
  prof.begin_step(0, t0);
  prof.lap_shard(0, StepPhase::kLossApply, t0, t0 + nanoseconds(800));
  for (std::size_t s = 1; s < 4; ++s) {
    prof.lap_shard(s, StepPhase::kLossApply, t0 + nanoseconds(100),
                   t0 + nanoseconds(500));
  }
  prof.lap_parallel(StepPhase::kLossApply, 42, t0 + nanoseconds(800));
  const PhaseTotals t = prof.phase(StepPhase::kLossApply);
  EXPECT_EQ(t.nanos, 800u);
  EXPECT_EQ(t.cpu_nanos, 2000u);
  EXPECT_EQ(t.items, 42u);
  EXPECT_EQ(prof.total_nanos(), 800u);
  EXPECT_EQ(prof.total_cpu_nanos(), 2000u);
}

TEST(StepProfiler, SerialSimulationPhasesSumSanely) {
  // Attached to a real serial run: every phase got an observation per
  // step, wall equals CPU phase by phase, and the eight phase totals sum
  // to total_nanos (no phase double-counted, none missing).
  StepProfiler prof;
  profiled_run(prof, 0);

  EXPECT_EQ(prof.steps(), 50u);
  std::uint64_t wall_sum = 0;
  std::uint64_t cpu_sum = 0;
  for (const StepPhase p : kAllPhases) {
    const PhaseTotals t = prof.phase(p);
    EXPECT_EQ(t.nanos, t.cpu_nanos) << to_string(p);
    wall_sum += t.nanos;
    cpu_sum += t.cpu_nanos;
  }
  EXPECT_EQ(wall_sum, prof.total_nanos());
  EXPECT_EQ(cpu_sum, prof.total_cpu_nanos());
  EXPECT_GT(wall_sum, 0u);
}

TEST(StepProfiler, ShardedRunKeepsWallBelowCpu) {
  // Under the shard engine the parallel phases may burn more CPU than
  // wall, never the reverse; the work counters must be identical to the
  // serial engine's (same trajectory) and to the cumulative step stats.
  StepProfiler serial_prof;
  profiled_run(serial_prof, 0);
  StepProfiler sharded_prof;
  const auto sim = profiled_run(sharded_prof, 4);
  EXPECT_EQ(sharded_prof.steps(), 50u);
  std::uint64_t wall_sum = 0;
  for (const StepPhase p : kAllPhases) {
    const PhaseTotals t = sharded_prof.phase(p);
    // Each shard's busy interval lies inside the phase's fan-out-to-join
    // window, so summed CPU can never exceed shard_count × wall.  (Wall
    // can exceed CPU — pool scheduling overhead is wall, not shard work.)
    EXPECT_LE(t.cpu_nanos, t.nanos * 4) << to_string(p);
    EXPECT_EQ(t.items, serial_prof.phase(p).items) << to_string(p);
    wall_sum += t.nanos;
  }
  EXPECT_EQ(wall_sum, sharded_prof.total_nanos());
  const CumulativeStats& totals = sim->cumulative();
  EXPECT_EQ(sharded_prof.phase(StepPhase::kInjection).items,
            static_cast<std::uint64_t>(totals.injected));
  EXPECT_EQ(sharded_prof.phase(StepPhase::kLossApply).items,
            static_cast<std::uint64_t>(totals.sent));
  EXPECT_EQ(sharded_prof.phase(StepPhase::kExtraction).items,
            static_cast<std::uint64_t>(totals.extracted));
}

TEST(StepProfiler, ZeroCapacityAttachesTotalsWithoutSpans) {
  StepProfiler prof;
  EXPECT_EQ(prof.lane_count(), 0u);
  profiled_run(prof, 4);
  EXPECT_EQ(prof.lane_count(), 5u);
  EXPECT_EQ(prof.total_spans(), 0u);
  EXPECT_EQ(prof.total_dropped(), 0u);
  EXPECT_GT(prof.total_nanos(), 0u);
}

TEST(StepProfiler, ShardedRunRecordsOneSpanPerShardBody) {
  // Lane 0 holds one span per (step, phase); lane s+1 one per sharded
  // phase body of shard s.  A sharded step makes exactly one fan-out,
  // selection, so every shard lane holds one span per step and no other
  // phase.
  StepProfiler prof(1024);
  profiled_run(prof, 4);
  ASSERT_EQ(prof.lane_count(), 5u);
  EXPECT_EQ(prof.lane(0).size(), 50u * kStepPhaseCount);
  for (std::size_t lane = 1; lane < 5; ++lane) {
    EXPECT_EQ(prof.lane(lane).size(), 50u) << lane;
    for (const SpanRecord& span : prof.lane(lane).spans()) {
      EXPECT_EQ(span.shard, lane - 1);
      EXPECT_EQ(span.phase, StepPhase::kSelection) << to_string(span.phase);
    }
  }
  EXPECT_EQ(prof.total_dropped(), 0u);

  std::ostringstream os;
  EXPECT_EQ(prof.write_chrome_trace(os), prof.total_spans());
  const std::string json = os.str();
  for (const StepPhase p : kAllPhases) {
    EXPECT_NE(json.find("\"name\":\"" + std::string(to_string(p)) +
                        "\",\"cat\":\"step\""),
              std::string::npos)
        << to_string(p);
  }
  EXPECT_NE(json.find("\"shard\":3"), std::string::npos);
  EXPECT_EQ(json.find("\"shard\":4"), std::string::npos);
}

TEST(StepProfiler, JsonReportsCpuNanos) {
  StepProfiler prof;
  profiled_run(prof, 0);
  const std::string json = prof.json();
  EXPECT_NE(json.find("\"cpu_nanos\""), std::string::npos);
}

TEST(StepProfiler, ResetClearsEverything) {
  StepProfiler prof(64);
  profiled_run(prof, 4);
  EXPECT_GT(prof.total_spans(), 0u);
  EXPECT_GT(prof.total_dropped(), 0u);
  prof.reset();
  EXPECT_EQ(prof.steps(), 0u);
  EXPECT_EQ(prof.total_nanos(), 0u);
  EXPECT_EQ(prof.total_cpu_nanos(), 0u);
  EXPECT_EQ(prof.total_spans(), 0u);
  EXPECT_EQ(prof.total_dropped(), 0u);
  for (const StepPhase p : kAllPhases) EXPECT_EQ(prof.phase(p).items, 0u);
  EXPECT_EQ(prof.lane(0).capacity(), 64u);
}

// The SpanLane and SpanTracer suites keep the names they had while span
// tracing was a class of its own; they now exercise the profiler's lanes.
TEST(SpanLane, FillsToCapacityWithoutDropping) {
  SpanLane lane(4);
  EXPECT_EQ(lane.capacity(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    lane.record(make_span(i, StepPhase::kDynamics));
  }
  EXPECT_EQ(lane.size(), 4u);
  EXPECT_EQ(lane.dropped(), 0u);
  const std::vector<SpanRecord> spans = lane.spans();
  ASSERT_EQ(spans.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(spans[i].step, i);
}

TEST(SpanLane, WrapOverwritesOldestAndCountsDropped) {
  SpanLane lane(3);
  for (std::uint64_t i = 0; i < 7; ++i) {
    lane.record(make_span(i, StepPhase::kInjection));
  }
  EXPECT_EQ(lane.size(), 3u);
  EXPECT_EQ(lane.dropped(), 4u);
  const std::vector<SpanRecord> spans = lane.spans();
  ASSERT_EQ(spans.size(), 3u);
  // Oldest-to-newest window over the most recent records.
  EXPECT_EQ(spans[0].step, 4u);
  EXPECT_EQ(spans[1].step, 5u);
  EXPECT_EQ(spans[2].step, 6u);
}

TEST(SpanLane, CapacityOneKeepsOnlyTheNewest) {
  SpanLane lane(1);
  for (std::uint64_t i = 0; i < 5; ++i) {
    lane.record(make_span(i, StepPhase::kDeclaration));
  }
  EXPECT_EQ(lane.size(), 1u);
  EXPECT_EQ(lane.dropped(), 4u);
  EXPECT_EQ(lane.spans().front().step, 4u);
}

TEST(SpanLane, ZeroCapacityKeepsTotalsOnly) {
  // Capacity 0 is the totals-only lane: spans are neither kept nor
  // counted as dropped, while the phase totals still accumulate.
  SpanLane lane(0);
  EXPECT_EQ(lane.capacity(), 0u);
  lane.record(make_span(7, StepPhase::kDynamics));
  lane.totals(StepPhase::kDynamics).items += 3;
  EXPECT_EQ(lane.size(), 0u);
  EXPECT_EQ(lane.dropped(), 0u);
  EXPECT_TRUE(lane.spans().empty());
  EXPECT_EQ(lane.totals(StepPhase::kDynamics).items, 3u);
}

TEST(SpanLane, ClearResetsSizeAndDropCount) {
  SpanLane lane(2);
  for (std::uint64_t i = 0; i < 5; ++i) {
    lane.record(make_span(i, StepPhase::kDynamics));
  }
  lane.totals(StepPhase::kSelection).nanos += 9;
  lane.clear();
  EXPECT_EQ(lane.size(), 0u);
  EXPECT_EQ(lane.dropped(), 0u);
  EXPECT_EQ(lane.capacity(), 2u);
  EXPECT_EQ(lane.totals(StepPhase::kSelection).nanos, 0u);
}

TEST(SpanTracer, EnsureLanesGrowsAndNeverShrinks) {
  StepProfiler prof(8);
  EXPECT_EQ(prof.lane_count(), 0u);
  prof.ensure_lanes(3);
  EXPECT_EQ(prof.lane_count(), 3u);
  prof.lane(2).record(make_span(1, StepPhase::kDynamics, 1));
  prof.ensure_lanes(1);
  EXPECT_EQ(prof.lane_count(), 3u);
  EXPECT_EQ(prof.lane(2).size(), 1u);
  prof.ensure_lanes(5);
  EXPECT_EQ(prof.lane_count(), 5u);
  EXPECT_EQ(prof.total_spans(), 1u);
}

TEST(SpanTracer, ChromeExportCarriesNamesShardsAndCounts) {
  StepProfiler prof(8);
  prof.ensure_lanes(2);
  prof.lane(0).record(make_span(3, StepPhase::kInjection));
  prof.lane(1).record(make_span(3, StepPhase::kSelection, 0));
  prof.lane(1).record(make_span(4, StepPhase::kLossApply, 0));

  std::ostringstream os;
  const std::size_t written = prof.write_chrome_trace(os);
  EXPECT_EQ(written, 3u);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"injection\",\"cat\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"selection\",\"cat\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"loss-apply\",\"cat\""),
            std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"shard\":0"), std::string::npos);
  EXPECT_NE(json.find("\"spans\":3"), std::string::npos);
}

TEST(SpanTracer, DroppedSpansAreReportedInOtherData) {
  StepProfiler prof(2);
  prof.ensure_lanes(1);
  for (std::uint64_t i = 0; i < 5; ++i) {
    prof.lane(0).record(make_span(i, StepPhase::kDynamics));
  }
  EXPECT_EQ(prof.total_dropped(), 3u);
  std::ostringstream os;
  prof.write_chrome_trace(os);
  EXPECT_NE(os.str().find("\"dropped\":3"), std::string::npos);
}

TEST(SpanTracer, WrappedRingStillExportsWholeRunTotals) {
  // A 4-span ring keeps a sliver of the run; otherData.profile carries
  // the whole-run totals, with injection items = cumulative injected.
  StepProfiler prof(4);
  Simulator sim(scenarios::grid_single(3, 4));
  sim.set_arrival(std::make_unique<BernoulliArrival>(0.7));
  sim.set_profiler(&prof);
  sim.run(100);
  ASSERT_GT(prof.total_dropped(), 0u);
  EXPECT_EQ(prof.steps(), 100u);
  EXPECT_EQ(prof.phase(StepPhase::kInjection).items,
            static_cast<std::uint64_t>(sim.cumulative().injected));
  std::ostringstream os;
  prof.write_chrome_trace(os);
  EXPECT_NE(os.str().find("\"profile\":" + prof.json() + "}"),
            std::string::npos);
}

TEST(SpanTracer, AttachedTracerNeverPerturbsTheTrajectory) {
  const auto run = [](StepProfiler* prof) {
    SimulatorOptions options;
    options.seed = 0x0B5;
    Simulator sim(scenarios::grid_single(3, 4), options);
    sim.set_arrival(std::make_unique<BernoulliArrival>(0.7));
    if (prof != nullptr) sim.set_profiler(prof);
    sim.run(200);
    return std::vector<PacketCount>(sim.queues().begin(),
                                    sim.queues().end());
  };
  StepProfiler prof(std::size_t{1} << 14);
  const auto traced = run(&prof);
  EXPECT_EQ(traced, run(nullptr));
  // One span per (step, phase) on the serial engine's main lane.
  EXPECT_GT(prof.total_spans(), 0u);
  ASSERT_GE(prof.lane_count(), 1u);
  EXPECT_EQ(prof.lane(0).size() + prof.lane(0).dropped(),
            200u * kStepPhaseCount);
}

}  // namespace
}  // namespace lgg::core
