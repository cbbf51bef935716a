// E10 — Conjecture 4: on a dynamic topology that keeps a feasible flow
// alive at every instant (protected lanes), LGG remains stable; churn that
// can sever feasibility degrades to divergence as outages dominate.
//
// The certified-churn leg measures the incremental feasibility certificate
// (flow/incremental.hpp): per-mutation warm patching vs re-solving the
// extended graph from scratch, on a relay-heavy random instance.  Emits
// BENCH_churn.json for commit-over-commit tracking.
#include "support/bench_common.hpp"

#include <chrono>
#include <fstream>
#include <random>

#include "core/scenarios.hpp"
#include "flow/incremental.hpp"
#include "graph/multigraph.hpp"
#include "obs/json.hpp"

namespace {

using namespace lgg;

struct ChurnBenchResult {
  int mutations = 0;
  double patch_ms = 0.0;    ///< total wall time, warm patches
  double scratch_ms = 0.0;  ///< total wall time, from-scratch re-solves
  std::uint64_t patch_paths = 0;
  bool verdicts_agree = true;
};

ChurnBenchResult run_certified_churn(const core::SdNetwork& net,
                                     int mutations) {
  using clock = std::chrono::steady_clock;
  const auto sources = net.source_rates();
  const auto sinks = net.sink_rates();
  graph::EdgeMask mask(net.topology().edge_count());
  flow::IncrementalMaxFlow warm(net.topology(), sources, sinks);
  warm.set_cross_check(false);

  ChurnBenchResult result;
  result.mutations = mutations;
  std::mt19937_64 rng(0xC4);
  const EdgeId edges = net.topology().edge_count();
  for (int i = 0; i < mutations; ++i) {
    const EdgeId e = static_cast<EdgeId>(rng() % edges);
    const bool next = !mask.active(e);
    mask.set_active(e, next);

    const auto t0 = clock::now();
    warm.set_edge_active(e, next);
    const bool warm_feasible = warm.saturates_sources();
    const auto t1 = clock::now();
    flow::IncrementalMaxFlow scratch(net.topology(), sources, sinks,
                                     flow::ExtendedGraphOptions{}, &mask);
    const bool scratch_feasible = scratch.saturates_sources();
    const auto t2 = clock::now();

    result.patch_ms +=
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    result.scratch_ms +=
        std::chrono::duration<double, std::milli>(t2 - t1).count();
    if (warm_feasible != scratch_feasible) result.verdicts_agree = false;
  }
  result.patch_paths = warm.stats().augment_paths;
  return result;
}

void print_churn_certificate_report() {
  bench::banner(
      "E10b: certified churn — incremental vs from-scratch certificate",
      "random_unsaturated(512, 2048): per-mutation feasibility re-check via "
      "warm-started max-flow patching vs full extended-graph re-solve.");
  const core::SdNetwork net =
      core::scenarios::random_unsaturated(512, 2048, 8, 8, 0xFEED);
  constexpr int kMutations = 256;
  const ChurnBenchResult r = run_certified_churn(net, kMutations);
  const double speedup =
      r.patch_ms > 0.0 ? r.scratch_ms / r.patch_ms : 0.0;
  std::printf(
      "%d mutations: patch %.2f ms total (%.3f ms/mutation), scratch %.2f "
      "ms total (%.3f ms/mutation)\n",
      r.mutations, r.patch_ms, r.patch_ms / r.mutations, r.scratch_ms,
      r.scratch_ms / r.mutations);
  std::printf("speedup: %.1fx   verdicts agree: %s\n", speedup,
              r.verdicts_agree ? "yes" : "NO (BUG)");
  if (!r.verdicts_agree) bench::self_check_failed = true;

  std::ofstream out("BENCH_churn.json");
  if (out) {
    obs::JsonWriter json;
    json.begin_object();
    json.field("experiment", "certified_churn");
    json.field("nodes", static_cast<std::int64_t>(net.node_count()));
    json.field("edges",
               static_cast<std::int64_t>(net.topology().edge_count()));
    json.field("mutations", static_cast<std::int64_t>(r.mutations));
    json.field("patch_ms_total", r.patch_ms);
    json.field("scratch_ms_total", r.scratch_ms);
    json.field("patch_ms_per_mutation", r.patch_ms / r.mutations);
    json.field("scratch_ms_per_mutation", r.scratch_ms / r.mutations);
    json.field("speedup", speedup);
    json.field("augment_paths", static_cast<std::int64_t>(r.patch_paths));
    json.field("verdicts_agree", r.verdicts_agree);
    json.end_object();
    out << json.str() << '\n';
    std::printf("machine-readable results written to BENCH_churn.json\n");
  }
}

void print_report() {
  bench::banner(
      "E10: Conjecture 4 dynamic topology",
      "fat_path(4,x3), in = 1: lane 0 of each hop protected (feasibility "
      "preserved) under churn p; unprotected churn with p_on = 0 kills the "
      "network.");
  analysis::Table table({"dynamics", "p_off", "p_on", "verdict", "sup P_t",
                         "delivered/injected"});
  const core::SdNetwork net = core::scenarios::fat_path(4, 3, 1, 3);
  std::vector<EdgeId> lane0;
  for (EdgeId e = 0; e < net.topology().edge_count(); e += 3) {
    lane0.push_back(e);
  }
  struct Case {
    const char* label;
    double p_off, p_on;
    bool protect;
  };
  for (const Case c : {Case{"protected", 0.2, 0.2, true},
                       Case{"protected", 0.5, 0.5, true},
                       Case{"protected", 0.8, 0.2, true},
                       Case{"unprotected", 0.2, 0.2, false},
                       Case{"unprotected", 0.5, 0.05, false},
                       Case{"outage", 1.0, 0.0, false}}) {
    core::SimulatorOptions options;
    options.seed = 77;
    core::Simulator sim(net, options);
    core::FaultSchedule churn;
    churn.set_random_churn(
        {c.p_off, c.p_on, c.protect ? lane0 : std::vector<EdgeId>{}});
    sim.set_faults(std::make_unique<core::FaultInjector>(std::move(churn)));
    core::MetricsRecorder recorder;
    sim.run(5000, &recorder);
    const auto stability = core::assess_stability(recorder.network_state());
    const double goodput =
        sim.cumulative().injected > 0
            ? static_cast<double>(sim.cumulative().extracted) /
                  static_cast<double>(sim.cumulative().injected)
            : 0.0;
    table.add(c.label, c.p_off, c.p_on, bench::verdict_cell(stability),
              stability.max_state, goodput);
  }
  table.print(std::cout);
  print_churn_certificate_report();
}

void BM_ChurnStep(benchmark::State& state) {
  core::SimulatorOptions options;
  core::Simulator sim(core::scenarios::fat_path(4, 3, 1, 3), options);
  core::FaultSchedule churn;
  churn.set_random_churn({0.3, 0.3, {}});
  sim.set_faults(std::make_unique<core::FaultInjector>(std::move(churn)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.step());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChurnStep);

}  // namespace

LGG_BENCH_MAIN()
