// Shared plumbing for the experiment benches.
//
// Every bench binary prints (a) the scientific series it regenerates —
// the liblgg analogue of a table/figure of the paper — and then (b) runs
// its google-benchmark timing section.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <iostream>
#include <memory>
#include <string>

#include "analysis/table.hpp"
#include "core/metrics.hpp"
#include "core/simulator.hpp"
#include "core/stability.hpp"

namespace lgg::bench {

inline void banner(const char* experiment_id, const char* claim) {
  std::printf("\n==== %s ====\n%s\n\n", experiment_id, claim);
}

struct RunSpec {
  TimeStep steps = 2000;
  std::uint64_t seed = 0x10adULL;
  core::SimulatorOptions options{};
  std::unique_ptr<core::RoutingProtocol> protocol;  // null = LGG
  std::unique_ptr<core::ArrivalProcess> arrival;    // null = exact
  std::unique_ptr<core::LossModel> loss;            // null = none
  std::unique_ptr<core::Scheduler> scheduler;       // null = none
};

/// Runs one simulation and returns the recorded trajectory.
inline core::MetricsRecorder run_trajectory(core::SdNetwork net,
                                            RunSpec spec) {
  spec.options.seed = spec.seed;
  core::Simulator sim(std::move(net), spec.options,
                      std::move(spec.protocol));
  if (spec.arrival) sim.set_arrival(std::move(spec.arrival));
  if (spec.loss) sim.set_loss(std::move(spec.loss));
  if (spec.scheduler) sim.set_scheduler(std::move(spec.scheduler));
  core::MetricsRecorder recorder;
  sim.run(spec.steps, &recorder);
  return recorder;
}

inline std::string verdict_cell(const core::StabilityReport& report) {
  return std::string(core::to_string(report.verdict));
}

/// Set by a report whose self-check fails (solvers or verdicts that should
/// agree and do not): the bench still prints everything, then exits 1.
inline bool self_check_failed = false;

}  // namespace lgg::bench

/// Each bench defines `void print_report();` and its BENCHMARK()s, then
/// uses this main.
#define LGG_BENCH_MAIN()                                   \
  int main(int argc, char** argv) {                        \
    print_report();                                        \
    ::benchmark::Initialize(&argc, argv);                  \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1; \
    ::benchmark::RunSpecifiedBenchmarks();                 \
    ::benchmark::Shutdown();                               \
    return ::lgg::bench::self_check_failed ? 1 : 0;        \
  }
