// E15 — engineering throughput: simulator steps/second vs network size and
// degree, flow-solver speed on G*, and thread-pool replication scaling.
// Also profiles the phases of a sparse-source topology (2 sources / 2 sinks
// in 1024 nodes — the regime the O(1)-potential and role-list
// optimizations target) into BENCH_perf_core.json, so the perf trajectory
// is machine-trackable across commits.
#include "support/bench_common.hpp"

#include <fstream>

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

/// One cell of the shard-engine scaling curve.
struct ScalingCell {
  NodeId nodes = 0;
  std::size_t threads = 0;
  TimeStep steps = 0;
  double seconds = 0.0;
  double node_steps_per_second = 0.0;
  double speedup = 1.0;  ///< vs the serial engine on the same topology
};

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

/// steps/sec of a 5000-step run with span tracing in one of its cost
/// states: detached (the zero-cost claim — the hot path is one pointer
/// test per lap site), or a profiler keeping span rings attached,
/// with/without hotspot analytics riding the same run (the <= 2%
/// attached-overhead budget from the observability plane).
double measure_observed_steps_per_second(bool traced, std::size_t hotspot_k,
                                         DiscardSink* sink) {
  const NodeId n = 1024;
  core::Simulator sim(
      core::scenarios::random_unsaturated(n, static_cast<EdgeId>(4 * n), 2,
                                          2, 5),
      core::SimulatorOptions{});
  core::StepProfiler tracer(std::size_t{1} << 14);
  if (traced) sim.set_profiler(&tracer);
  obs::Telemetry telemetry([&] {
    obs::TelemetryOptions topts;
    topts.snapshot_every = 100;
    topts.hotspot_k = hotspot_k;
    return topts;
  }());
  if (hotspot_k > 0) {
    telemetry.set_sink(sink);
    sim.set_telemetry(&telemetry);
  }
  const TimeStep steps = 5000;
  analysis::Stopwatch wall;
  sim.run(steps);
  return static_cast<double>(steps) / wall.seconds();
}

/// nodes × threads node-steps/second curve of the shard engine, with each
/// cell's speedup over the serial engine on the same topology.  Reported
/// only: no speedup is asserted, since the shard engine fans out selection
/// alone and runs every other phase serially.
std::vector<ScalingCell> measure_shard_scaling() {
  std::vector<ScalingCell> cells;
  for (const NodeId side : {NodeId{64}, NodeId{128}, NodeId{256}}) {
    const NodeId n = side * side;
    // Fix total work per row: bigger networks take fewer steps.
    const auto steps =
        static_cast<TimeStep>(std::max<NodeId>(8, 262144 / n) * 8);
    const double serial_seconds = measure_sharded_seconds(side, 0, steps);
    for (const std::size_t threads : {std::size_t{0}, std::size_t{1},
                                      std::size_t{2}, std::size_t{4},
                                      std::size_t{8}}) {
      const double seconds =
          threads == 0 ? serial_seconds
                       : measure_sharded_seconds(side, threads, steps);
      ScalingCell cell;
      cell.nodes = n;
      cell.threads = threads;
      cell.steps = steps;
      cell.seconds = seconds;
      cell.node_steps_per_second =
          static_cast<double>(n) * static_cast<double>(steps) / seconds;
      cell.speedup = serial_seconds / seconds;
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
  // Best-of-3 on each side smooths scheduler noise before gating.
  const auto best_of_3 = [](auto&& measure) {
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) best = std::max(best, measure());
    return best;
  };
  const double untraced_sps = best_of_3(
      [] { return measure_observed_steps_per_second(false, 0, nullptr); });
  const double traced_sps = best_of_3(
      [] { return measure_observed_steps_per_second(true, 0, nullptr); });
  DiscardSink hotspot_sink;
  const double traced_hotspots_sps = best_of_3([&hotspot_sink] {
    return measure_observed_steps_per_second(true, 8, &hotspot_sink);
  });
  const double traced_overhead_pct =
      100.0 * (untraced_sps / traced_sps - 1.0);
  const double traced_hotspots_overhead_pct =
      100.0 * (untraced_sps / traced_hotspots_sps - 1.0);
  std::printf("span-tracing overhead (5000 steps, best of 3):\n");
  std::printf("  tracer detached            %.6g steps/sec\n", untraced_sps);
  std::printf("  tracer attached            %.6g steps/sec (%+.2f%%)\n",
              traced_sps, traced_overhead_pct);
  std::printf("  tracer + hotspots attached %.6g steps/sec (%+.2f%%)\n",
              traced_hotspots_sps, traced_hotspots_overhead_pct);
  std::printf("BENCH trace_overhead_gate attached=%.2f%% budget=2.00%% %s\n\n",
              traced_overhead_pct,
              traced_overhead_pct <= 2.0 ? "PASS" : "FAIL");

  // Shard-engine scaling: node-steps/second over nodes × threads
  // (threads = 0 is the serial engine; each sharded row uses K = threads
  // shards).  Relay-heavy topology with seeded queues, so the parallel
  // phases carry the step.
  const std::vector<ScalingCell> scaling = measure_shard_scaling();
  std::printf("shard-engine scaling (node-steps/sec, speedup vs serial):\n");
  std::printf("  %8s %8s %8s %14s %8s\n", "nodes", "threads", "steps",
              "node-steps/s", "speedup");
  for (const ScalingCell& cell : scaling) {
    std::printf("  %8d %8zu %8lld %14.6g %7.2fx\n",
                static_cast<int>(cell.nodes), cell.threads,
                static_cast<long long>(cell.steps),
                cell.node_steps_per_second, cell.speedup);
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
    json.field("detached_steps_per_second", untraced_sps);
    json.field("attached_steps_per_second", traced_sps);
    json.field("attached_overhead_pct", traced_overhead_pct);
    json.field("attached_hotspots_steps_per_second", traced_hotspots_sps);
    json.field("attached_hotspots_overhead_pct",
               traced_hotspots_overhead_pct);
    json.field("budget_pct", 2.0);
    json.end_object();
    json.begin_array("shard_scaling");
    for (const ScalingCell& cell : scaling) {
      json.begin_object();
      json.field("nodes", static_cast<std::int64_t>(cell.nodes));
      json.field("threads", static_cast<std::uint64_t>(cell.threads));
      json.field("steps", static_cast<std::int64_t>(cell.steps));
      json.field("seconds", cell.seconds);
      json.field("node_steps_per_second", cell.node_steps_per_second);
      json.field("speedup_vs_serial", cell.speedup);
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
