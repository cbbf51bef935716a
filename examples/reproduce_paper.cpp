// The paper in one binary: a compact version of every experiment family,
// printed as a one-page verdict summary.  (The full-size experiments live
// in bench/ — this is the five-minute tour.)
//
//   $ ./reproduce_paper
#include <cstdio>
#include <iostream>

#include "lgg.hpp"

namespace {

using namespace lgg;

int checks = 0;
int passed = 0;

void check(const char* what, bool ok) {
  ++checks;
  passed += ok ? 1 : 0;
  std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what);
}

core::Verdict verdict_of(core::Simulator& sim, TimeStep steps) {
  core::MetricsRecorder recorder;
  sim.run(steps, &recorder);
  return core::assess_stability(recorder.network_state()).verdict;
}

}  // namespace

int main() {
  std::printf("Reproducing: Stability of a localized and greedy routing "
              "algorithm (IPPS 2010)\n\n");

  // --- Theorem 1, stable side (Lemma 1) --------------------------------
  std::printf("Theorem 1 / Lemma 1 — feasible => stable:\n");
  {
    core::Simulator sim(core::scenarios::fat_path(4, 3, 1, 3), {});
    check("unsaturated fat path stable",
          verdict_of(sim, 2000) == core::Verdict::kStable);
  }
  {
    core::Simulator sim(core::scenarios::saturated_at_dstar(3), {});
    check("saturated-at-d* K_{3,3} stable (Section V-B)",
          verdict_of(sim, 2000) == core::Verdict::kStable);
  }
  {
    core::Simulator sim(core::scenarios::barbell_bottleneck(3, 1, 2), {});
    check("saturated internal-cut barbell stable (Section V-C)",
          verdict_of(sim, 2000) == core::Verdict::kStable);
  }

  // --- Theorem 1, divergence side ---------------------------------------
  std::printf("Theorem 1 — infeasible => divergence (any protocol):\n");
  for (const auto name : {"lgg", "flow_routing", "hot_potato"}) {
    core::Simulator sim(core::scenarios::barbell_bottleneck(3, 3, 3), {},
                        baselines::make_protocol(name));
    check((std::string("overloaded barbell diverges under ") +
           std::string(name))
              .c_str(),
          verdict_of(sim, 1500) == core::Verdict::kDiverging);
  }

  // --- Properties 1-2 ----------------------------------------------------
  std::printf("Properties 1-2 — growth and drift bounds:\n");
  {
    const core::SdNetwork net = core::scenarios::fat_path(4, 3, 1, 3);
    const auto bounds = core::unsaturated_bounds(net, core::analyze(net));
    core::Simulator sim(net, {});
    core::MetricsRecorder recorder;
    sim.run(2000, &recorder);
    check("P_{t+1} - P_t <= 5 n Delta^2 at every step",
          analysis::max_increment(recorder.network_state()) <=
              bounds.growth);
    const auto report =
        core::assess_stability(recorder.network_state(), bounds.state);
    check("sup P_t within the Lemma-1 bound",
          report.within_bound.value_or(false));
  }
  {
    core::Simulator sim(core::scenarios::fat_path(3, 3, 1, 3), {});
    sim.set_initial_queue(0, 100000);
    core::MetricsRecorder recorder;
    sim.run(300, &recorder);
    bool strictly_draining = true;
    const auto& state = recorder.network_state();
    for (std::size_t t = 21; t < state.size(); ++t) {
      if (state[t - 1] > 1e6 && state[t] >= state[t - 1]) {
        strictly_draining = false;
      }
    }
    check("inflated state drains strictly (Property 2)", strictly_draining);
  }

  // --- Conjectures --------------------------------------------------------
  std::printf("Conjectures 1-5 — empirical probes:\n");
  {
    core::Simulator sim(core::scenarios::saturated_at_dstar(3), {});
    sim.set_loss(std::make_unique<core::BernoulliLoss>(0.4));
    check("C1: heavy losses never destabilize a feasible network",
          verdict_of(sim, 2500) != core::Verdict::kDiverging);
  }
  {
    core::Simulator sim(core::scenarios::fat_path(4, 3, 3, 3), {});
    sim.set_arrival(std::make_unique<core::BurstArrival>(2.0, 0.0, 3, 6));
    check("C2: compensated bursts above f* stay stable",
          verdict_of(sim, 3000) != core::Verdict::kDiverging);
  }
  {
    core::Simulator sim(core::scenarios::fat_path(4, 4, 2, 4), {});
    sim.set_arrival(std::make_unique<core::UniformArrival>(0.8));
    check("C3: uniform arrivals below the cut stable",
          verdict_of(sim, 3000) == core::Verdict::kStable);
  }
  {
    const core::SdNetwork net = core::scenarios::fat_path(4, 3, 1, 3);
    std::vector<EdgeId> lane0;
    for (EdgeId e = 0; e < net.topology().edge_count(); e += 3) {
      lane0.push_back(e);
    }
    core::Simulator sim(net, {});
    core::FaultSchedule churn;
    churn.set_random_churn({0.5, 0.5, lane0});
    sim.set_faults(std::make_unique<core::FaultInjector>(std::move(churn)));
    check("C4: churn with a protected feasible backbone stable",
          verdict_of(sim, 3000) == core::Verdict::kStable);
  }
  {
    core::Simulator sim(core::scenarios::fat_path(3, 2, 1, 2), {});
    sim.set_arrival(std::make_unique<core::ScaledArrival>(0.25));
    sim.set_scheduler(std::make_unique<core::ExactMatchingScheduler>());
    check("C5: oracle matching under interference stable at reduced load",
          verdict_of(sim, 3000) == core::Verdict::kStable);
  }

  // --- R-generalized model ------------------------------------------------
  std::printf("Definitions 5-8 — R-generalized networks:\n");
  {
    core::SimulatorOptions options;
    options.declaration_policy = core::DeclarationPolicy::kDeclareR;
    options.extraction_policy = core::ExtractionPolicy::kRetentive;
    core::Simulator sim(
        core::scenarios::generalize(core::scenarios::fat_path(4, 3, 1, 3),
                                    16),
        options);
    check("lying R=16 network stable under retentive extraction",
          verdict_of(sim, 2500) == core::Verdict::kStable);
  }

  // --- Section V-C induction ----------------------------------------------
  std::printf("Section V-C — the induction, executed:\n");
  {
    const auto trace =
        core::run_induction(core::scenarios::barbell_bottleneck(4, 1, 2));
    check("barbell splits at its internal cut and recursion terminates",
          trace.splits >= 1 && trace.leaves == trace.splits + 1);
  }

  // --- Goldberg-Tarjan link -------------------------------------------------
  std::printf("Section I remark — LGG computes the max flow:\n");
  {
    const auto est = core::estimate_max_flow_via_lgg(
        core::scenarios::fat_path(4, 3, 6, 6), 1000, 2000);
    check("steady delivery rate == f*", est.relative_error < 0.02);
  }

  // --- Stability region (sweep API) ----------------------------------------
  std::printf("Stability region — load sweep via analysis::Sweep:\n");
  {
    analysis::ThreadPool pool;
    analysis::Sweep sweep;
    sweep.add_point("0.5", 0.5).add_point("0.9", 0.9).add_point("1.2", 1.2);
    const core::SdNetwork net = core::scenarios::fat_path(4, 3, 3, 3);
    const auto rows = sweep.run(
        pool, 2, 77, [&net](double load, std::uint64_t seed) {
          core::SimulatorOptions options;
          options.seed = seed;
          core::Simulator sim(net, options);
          sim.set_arrival(std::make_unique<core::ScaledArrival>(load));
          core::MetricsRecorder recorder;
          sim.run(2000, &recorder);
          return core::assess_stability(recorder.network_state()).verdict ==
                         core::Verdict::kDiverging
                     ? 1.0
                     : 0.0;
        });
    check("loads 0.5 and 0.9 stable, load 1.2 diverging",
          rows[0].summary.max == 0.0 && rows[1].summary.max == 0.0 &&
              rows[2].summary.min == 1.0);
  }

  std::printf("\n%d/%d checks passed.\n", passed, checks);
  return passed == checks ? 0 : 1;
}
