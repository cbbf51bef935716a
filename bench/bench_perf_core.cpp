// E15 — engineering throughput: simulator steps/second vs network size and
// degree, flow-solver speed on G*, and thread-pool replication scaling.
// Also profiles the phases of a sparse-source topology (2 sources / 2 sinks
// in 1024 nodes — the regime the O(1)-potential and role-list
// optimizations target) into BENCH_perf_core.json, so the perf trajectory
// is machine-trackable across commits.
#include "support/bench_common.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>
#include <vector>

#include "analysis/experiment.hpp"
#include "flow/max_flow.hpp"
#include "core/profiler.hpp"
#include "core/scenarios.hpp"
#include "graph/generators.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"

namespace {

using namespace lgg;

/// Counts bytes but keeps nothing: measures the full snapshot-emission
/// cost without mixing in disk latency.
class DiscardSink final : public obs::TelemetrySink {
 public:
  void write_line(std::string_view line) override { bytes_ += line.size(); }
  [[nodiscard]] std::size_t bytes() const { return bytes_; }

 private:
  std::size_t bytes_ = 0;
};

enum class TelemetryMode { kNone, kUnarmed, kArmed };

/// One cell of the shard-engine scaling curve: medians and ranges over
/// kScalingRounds runs.
struct ScalingCell {
  NodeId nodes = 0;
  std::size_t threads = 0;
  TimeStep steps = 0;
  double seconds = 0.0;                ///< median
  double node_steps_per_second = 0.0;  ///< median
  double node_steps_per_second_min = 0.0;
  double node_steps_per_second_max = 0.0;
  /// Median, over rounds, of the serial/threaded time ratio of the runs
  /// made in the same round (1 for the serial row).
  double speedup = 1.0;
  double speedup_min = 1.0;
  double speedup_max = 1.0;
};
constexpr int kScalingRounds = 5;

/// Relay-heavy workload for the shard engine: a side×side grid with one
/// source and one sink, every relay seeded with packets so selection (the
/// phase the shard engine fans out) and the apply pass dominate.  threads == 0
/// runs the serial engine; threads >= 1 runs the shard engine with
/// K = threads shards.
double measure_sharded_seconds(NodeId side, std::size_t threads,
                               TimeStep steps) {
  core::Simulator sim(core::scenarios::grid_single(side, side),
                      core::SimulatorOptions{});
  const NodeId n = side * side;
  for (NodeId v = 0; v < n; ++v) sim.set_initial_queue(v, 8);
  if (threads >= 1) {
    sim.enable_sharding(static_cast<std::uint32_t>(threads), threads);
  }
  analysis::Stopwatch wall;
  sim.run(steps);
  return wall.seconds();
}

/// One copy of the sparse-source run with span tracing in one of its cost
/// states: detached (the zero-cost claim — the hot path is one pointer
/// test per lap site), or a profiler keeping span rings attached,
/// with/without hotspot analytics riding the same run (the <= 2%
/// attached-overhead budget from the observability plane).  Every state
/// runs the same trajectory, so equal step counts are equal work.
struct ObservedRun {
  ObservedRun(bool traced, std::size_t hotspot_k, DiscardSink* sink)
      : sim(core::scenarios::random_unsaturated(1024, 4096, 2, 2, 5),
            core::SimulatorOptions{}),
        tracer(std::size_t{1} << 14),
        telemetry([&] {
          obs::TelemetryOptions topts;
          topts.snapshot_every = 100;
          topts.hotspot_k = hotspot_k;
          return topts;
        }()) {
    if (traced) sim.set_profiler(&tracer);
    if (hotspot_k > 0) {
      telemetry.set_sink(sink);
      sim.set_telemetry(&telemetry);
    }
  }

  core::Simulator sim;
  core::StepProfiler tracer;
  obs::Telemetry telemetry;
};

/// Span-tracing overhead as a median of paired ratios.  The three cost
/// states run in lockstep, kChunk steps at a time in alternating order,
/// until each has run >= kMinSeconds: that is one round, and its overhead
/// is a time ratio over equal work.  Fine interleaving cancels the
/// machine's drift, which whole-run best-of-N timings read as overhead,
/// and the median over kRounds rounds drops the outliers.
struct TraceOverhead {
  static constexpr int kRounds = 9;
  static constexpr double kMinSeconds = 0.5;
  static constexpr TimeStep kChunk = 100;
  double detached_sps = 0.0;  ///< median over rounds
  double attached_sps = 0.0;
  double hotspots_sps = 0.0;
  std::vector<double> attached_pct;  ///< per round, in run order
  std::vector<double> hotspots_pct;
  double attached_median_pct = 0.0;
  double hotspots_median_pct = 0.0;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

TraceOverhead measure_trace_overhead() {
  DiscardSink hotspot_sink;
  ObservedRun detached(false, 0, nullptr);
  ObservedRun attached(true, 0, nullptr);
  ObservedRun hotspots(true, 8, &hotspot_sink);
  ObservedRun* const runs[3] = {&detached, &attached, &hotspots};
  TraceOverhead r;
  std::vector<double> sps[3];
  for (int round = 0; round < TraceOverhead::kRounds; ++round) {
    double seconds[3] = {0.0, 0.0, 0.0};
    TimeStep steps = 0;
    for (bool forward = true;
         std::min({seconds[0], seconds[1], seconds[2]}) <
         TraceOverhead::kMinSeconds;
         forward = !forward) {
      for (int k = 0; k < 3; ++k) {
        const int state = forward ? k : 2 - k;
        analysis::Stopwatch wall;
        runs[state]->sim.run(TraceOverhead::kChunk);
        seconds[state] += wall.seconds();
      }
      steps += TraceOverhead::kChunk;
    }
    for (int state = 0; state < 3; ++state) {
      sps[state].push_back(static_cast<double>(steps) / seconds[state]);
    }
    r.attached_pct.push_back(100.0 * (seconds[1] / seconds[0] - 1.0));
    r.hotspots_pct.push_back(100.0 * (seconds[2] / seconds[0] - 1.0));
  }
  r.detached_sps = median(sps[0]);
  r.attached_sps = median(sps[1]);
  r.hotspots_sps = median(sps[2]);
  r.attached_median_pct = median(r.attached_pct);
  r.hotspots_median_pct = median(r.hotspots_pct);
  return r;
}

/// nodes × threads node-steps/second curve of the shard engine, with each
/// cell's speedup over the serial engine on the same topology.  Reported
/// only: no speedup is asserted, since the shard engine fans out selection
/// alone and runs every other phase serially.  A single timing of a
/// ~40 ms run spread about 2× on a shared host, so each row runs
/// kScalingRounds rounds; a round runs the serial engine and every thread
/// count once, in an order that reverses from round to round, and a cell's
/// speedup is the median of its per-round paired ratios.
std::vector<ScalingCell> measure_shard_scaling() {
  constexpr std::size_t kThreads[] = {0, 1, 2, 4, 8};
  constexpr std::size_t kCells = std::size(kThreads);
  std::vector<ScalingCell> cells;
  for (const NodeId side : {NodeId{64}, NodeId{128}, NodeId{256}}) {
    const NodeId n = side * side;
    // Fix total work per row: bigger networks take fewer steps.
    const auto steps =
        static_cast<TimeStep>(std::max<NodeId>(8, 262144 / n) * 8);
    std::vector<double> seconds[kCells];
    for (int round = 0; round < kScalingRounds; ++round) {
      for (std::size_t k = 0; k < kCells; ++k) {
        const std::size_t i = round % 2 == 0 ? k : kCells - 1 - k;
        seconds[i].push_back(
            measure_sharded_seconds(side, kThreads[i], steps));
      }
    }
    for (std::size_t i = 0; i < kCells; ++i) {
      std::vector<double> rate;
      std::vector<double> speedup;
      for (int round = 0; round < kScalingRounds; ++round) {
        rate.push_back(static_cast<double>(n) * static_cast<double>(steps) /
                       seconds[i][round]);
        speedup.push_back(seconds[0][round] / seconds[i][round]);
      }
      ScalingCell cell;
      cell.nodes = n;
      cell.threads = kThreads[i];
      cell.steps = steps;
      cell.seconds = median(seconds[i]);
      cell.node_steps_per_second = median(rate);
      const auto [rate_min, rate_max] =
          std::minmax_element(rate.begin(), rate.end());
      cell.node_steps_per_second_min = *rate_min;
      cell.node_steps_per_second_max = *rate_max;
      cell.speedup = median(speedup);
      const auto [speedup_min, speedup_max] =
          std::minmax_element(speedup.begin(), speedup.end());
      cell.speedup_min = *speedup_min;
      cell.speedup_max = *speedup_max;
      cells.push_back(cell);
    }
  }
  return cells;
}

/// steps/sec of a 5000-step run on the sparse-source topology with the
/// telemetry layer in one of its three cost states.
double measure_steps_per_second(TelemetryMode mode, DiscardSink* sink) {
  const NodeId n = 1024;
  core::Simulator sim(
      core::scenarios::random_unsaturated(n, static_cast<EdgeId>(4 * n), 2,
                                          2, 5),
      core::SimulatorOptions{});
  obs::TelemetryOptions topts;
  topts.snapshot_every = 100;
  topts.flight_capacity = mode == TelemetryMode::kArmed ? 256 : 0;
  obs::Telemetry telemetry(topts);
  if (mode == TelemetryMode::kArmed && sink != nullptr) {
    telemetry.set_sink(sink);
  }
  if (mode != TelemetryMode::kNone) sim.set_telemetry(&telemetry);
  const TimeStep steps = 5000;
  analysis::Stopwatch wall;
  sim.run(steps);
  return static_cast<double>(steps) / wall.seconds();
}

void print_report() {
  bench::banner("E15: core throughput",
                "Per-phase breakdown (BENCH_perf_core.json) of one "
                "simulator step on a "
                "sparse-source topology, then the google-benchmark section "
                "for steps/sec, solver times, and replication scaling.");

  // Sparse-source profile: 1024 nodes, 4096 links, only 2 sources and 2
  // sinks — injection/extraction must not scan the 1020 relays.
  const NodeId n = 1024;
  core::Simulator sim(
      core::scenarios::random_unsaturated(n, static_cast<EdgeId>(4 * n), 2,
                                          2, 5),
      core::SimulatorOptions{});
  core::StepProfiler profiler;
  sim.set_profiler(&profiler);
  const TimeStep steps = 5000;
  analysis::Stopwatch wall;
  sim.run(steps);
  const double seconds = wall.seconds();
  // The per-phase breakdown goes to BENCH_perf_core.json ("profile").
  std::printf("sparse-source run (n=%d, m=%d, %lld steps):\n",
              static_cast<int>(n), static_cast<int>(4 * n),
              static_cast<long long>(steps));
  std::printf("wall steps/sec=%.6g  P_t=%.6g  total=%lld\n\n",
              static_cast<double>(steps) / seconds, sim.network_state(),
              static_cast<long long>(sim.total_packets()));

  // Telemetry cost states on the same topology: a detached run, an
  // attached-but-unarmed session (the claim: within noise of baseline —
  // one pointer test per step), and a fully armed session emitting
  // snapshots into a discarding sink (the real observation cost).
  const double baseline_sps =
      measure_steps_per_second(TelemetryMode::kNone, nullptr);
  const double unarmed_sps =
      measure_steps_per_second(TelemetryMode::kUnarmed, nullptr);
  DiscardSink discard;
  const double armed_sps =
      measure_steps_per_second(TelemetryMode::kArmed, &discard);
  const double unarmed_overhead_pct =
      100.0 * (baseline_sps / unarmed_sps - 1.0);
  const double armed_overhead_pct = 100.0 * (baseline_sps / armed_sps - 1.0);
  std::printf("telemetry overhead (5000 steps, same topology):\n");
  std::printf("  no telemetry      %.6g steps/sec\n", baseline_sps);
  std::printf("  attached, unarmed %.6g steps/sec (%+.2f%%)\n", unarmed_sps,
              unarmed_overhead_pct);
  std::printf("  armed, JSONL sink %.6g steps/sec (%+.2f%%, %zu bytes)\n\n",
              armed_sps, armed_overhead_pct, discard.bytes());

  // Span-tracing cost states on the same topology.  Detached must sit in
  // the noise (the lap sites test one pointer each); attached — even with
  // hotspot analytics riding the same run — has a 2% overhead budget.
  const TraceOverhead trace = measure_trace_overhead();
  std::printf("span-tracing overhead (%d rounds of >= %.1f s per state, "
              "lockstep %lld-step chunks, median of paired ratios):\n",
              TraceOverhead::kRounds, TraceOverhead::kMinSeconds,
              static_cast<long long>(TraceOverhead::kChunk));
  std::printf("  tracer detached            %.6g steps/sec\n",
              trace.detached_sps);
  std::printf("  tracer attached            %.6g steps/sec (%+.2f%%)\n",
              trace.attached_sps, trace.attached_median_pct);
  std::printf("  tracer + hotspots attached %.6g steps/sec (%+.2f%%)\n",
              trace.hotspots_sps, trace.hotspots_median_pct);
  std::printf("  attached per round:");
  for (const double pct : trace.attached_pct) std::printf(" %+.1f%%", pct);
  std::printf("\n");
  std::printf("BENCH trace_overhead_gate attached=%.2f%% budget=2.00%% %s\n\n",
              trace.attached_median_pct,
              trace.attached_median_pct <= 2.0 ? "PASS" : "FAIL");

  // Shard-engine scaling: node-steps/second over nodes × threads
  // (threads = 0 is the serial engine; each sharded row uses K = threads
  // shards).  Relay-heavy topology with seeded queues, so the parallel
  // phases carry the step.
  const std::vector<ScalingCell> scaling = measure_shard_scaling();
  std::printf(
      "shard-engine scaling (medians of %d interleaved rounds, [min-max]; "
      "speedup is the median paired ratio vs serial):\n",
      kScalingRounds);
  std::printf("  %8s %8s %8s %14s %23s %8s %15s\n", "nodes", "threads",
              "steps", "node-steps/s", "[min-max]", "speedup", "[min-max]");
  for (const ScalingCell& cell : scaling) {
    std::printf("  %8d %8zu %8lld %14.6g [%10.4g-%10.4g] %7.2fx "
                "[%5.2f-%5.2f]\n",
                static_cast<int>(cell.nodes), cell.threads,
                static_cast<long long>(cell.steps),
                cell.node_steps_per_second, cell.node_steps_per_second_min,
                cell.node_steps_per_second_max, cell.speedup,
                cell.speedup_min, cell.speedup_max);
  }
  std::printf("\n");

  std::ofstream out("BENCH_perf_core.json");
  if (out) {
    obs::JsonWriter json;
    json.begin_object();
    json.field("experiment", "perf_core");
    json.begin_object("topology");
    json.field("nodes", static_cast<std::int64_t>(n));
    json.field("edges", static_cast<std::int64_t>(4 * n));
    json.field("sources", std::int64_t{2});
    json.field("sinks", std::int64_t{2});
    json.end_object();
    json.field("steps", static_cast<std::int64_t>(steps));
    json.field("wall_seconds", seconds);
    json.field("wall_steps_per_second",
               static_cast<double>(steps) / seconds);
    json.begin_object("telemetry_overhead");
    json.field("baseline_steps_per_second", baseline_sps);
    json.field("unarmed_steps_per_second", unarmed_sps);
    json.field("unarmed_overhead_pct", unarmed_overhead_pct);
    json.field("armed_steps_per_second", armed_sps);
    json.field("armed_overhead_pct", armed_overhead_pct);
    json.field("armed_bytes_emitted",
               static_cast<std::uint64_t>(discard.bytes()));
    json.end_object();
    json.begin_object("trace_overhead");
    json.field("detached_steps_per_second", trace.detached_sps);
    json.field("attached_steps_per_second", trace.attached_sps);
    json.field("attached_overhead_pct", trace.attached_median_pct);
    json.field("attached_hotspots_steps_per_second", trace.hotspots_sps);
    json.field("attached_hotspots_overhead_pct", trace.hotspots_median_pct);
    json.field("rounds", static_cast<std::int64_t>(TraceOverhead::kRounds));
    json.field("min_seconds_per_state", TraceOverhead::kMinSeconds);
    json.field("budget_pct", 2.0);
    json.end_object();
    json.field("shard_scaling_rounds",
               static_cast<std::int64_t>(kScalingRounds));
    json.begin_array("shard_scaling");
    for (const ScalingCell& cell : scaling) {
      json.begin_object();
      json.field("nodes", static_cast<std::int64_t>(cell.nodes));
      json.field("threads", static_cast<std::uint64_t>(cell.threads));
      json.field("steps", static_cast<std::int64_t>(cell.steps));
      json.field("seconds", cell.seconds);
      json.field("node_steps_per_second", cell.node_steps_per_second);
      json.field("node_steps_per_second_min", cell.node_steps_per_second_min);
      json.field("node_steps_per_second_max", cell.node_steps_per_second_max);
      json.field("speedup_vs_serial", cell.speedup);
      json.field("speedup_vs_serial_min", cell.speedup_min);
      json.field("speedup_vs_serial_max", cell.speedup_max);
      json.end_object();
    }
    json.end_array();
    json.raw_field("profile", profiler.json());
    json.end_object();
    out << json.str() << '\n';
    std::printf("machine-readable profile written to BENCH_perf_core.json\n");
  }
}

void BM_SimStepBySize(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  core::SimulatorOptions options;
  core::Simulator sim(
      core::scenarios::random_unsaturated(n, static_cast<EdgeId>(4 * n), 2,
                                          2, 5),
      options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.step());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimStepBySize)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_SimStepSharded(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const NodeId side = 64;
  const NodeId n = side * side;
  core::Simulator sim(core::scenarios::grid_single(side, side),
                      core::SimulatorOptions{});
  for (NodeId v = 0; v < n; ++v) sim.set_initial_queue(v, 8);
  if (threads >= 1) {
    sim.enable_sharding(static_cast<std::uint32_t>(threads), threads);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.step());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(threads == 0 ? "serial"
                              : "sharded-k" + std::to_string(threads));
}
BENCHMARK(BM_SimStepSharded)->Arg(0)->Arg(1)->Arg(2)->Arg(4);

void BM_SimStepByDegree(benchmark::State& state) {
  const auto mult = static_cast<int>(state.range(0));
  core::SimulatorOptions options;
  core::Simulator sim(
      core::scenarios::fat_path(16, mult, mult / 2 + 1,
                                static_cast<Cap>(mult)),
      options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.step());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimStepByDegree)->Arg(2)->Arg(8)->Arg(32);

void BM_SimStepTelemetry(benchmark::State& state) {
  const auto mode = static_cast<TelemetryMode>(state.range(0));
  const NodeId n = 1024;
  core::Simulator sim(
      core::scenarios::random_unsaturated(n, static_cast<EdgeId>(4 * n), 2,
                                          2, 5),
      core::SimulatorOptions{});
  obs::TelemetryOptions topts;
  topts.snapshot_every = 100;
  topts.flight_capacity = mode == TelemetryMode::kArmed ? 256 : 0;
  obs::Telemetry telemetry(topts);
  DiscardSink sink;
  if (mode == TelemetryMode::kArmed) telemetry.set_sink(&sink);
  if (mode != TelemetryMode::kNone) sim.set_telemetry(&telemetry);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.step());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(mode == TelemetryMode::kNone     ? "no-telemetry"
                 : mode == TelemetryMode::kUnarmed ? "attached-unarmed"
                                                   : "armed-jsonl-sink");
}
BENCHMARK(BM_SimStepTelemetry)->DenseRange(0, 2);

void BM_MaxFlowSolvers(benchmark::State& state) {
  const auto algo = static_cast<flow::FlowAlgorithm>(state.range(0));
  const core::SdNetwork net = core::scenarios::random_unsaturated(
      64, 256, 3, 3, 7);
  const auto sources = net.source_rates();
  const auto sinks = net.sink_rates();
  for (auto _ : state) {
    flow::ExtendedGraph ext =
        flow::build_extended_graph(net.topology(), sources, sinks);
    benchmark::DoNotOptimize(
        flow::solve_max_flow(ext.net, ext.s_star, ext.d_star, algo));
  }
  state.SetLabel(std::string(flow::algorithm_name(algo)));
}
BENCHMARK(BM_MaxFlowSolvers)->DenseRange(0, 3);

void BM_ParallelReplication(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  analysis::ThreadPool pool(threads);
  const core::SdNetwork net = core::scenarios::fat_path(4, 3, 1, 3);
  for (auto _ : state) {
    const auto results = analysis::replicate<double>(
        pool, 16, 99, [&net](std::uint64_t seed, std::size_t) {
          core::SimulatorOptions options;
          options.seed = seed;
          core::Simulator sim(net, options);
          sim.run(500);
          return sim.network_state();
        });
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_ParallelReplication)->Arg(1)->Arg(2)->Arg(4);

}  // namespace

LGG_BENCH_MAIN()
