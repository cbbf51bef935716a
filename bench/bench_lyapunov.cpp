// E17 — the proof machinery of Section III audited live: Equations 1, 3,
// and 4 verified to the exact integer on every step of representative
// runs, plus the measured δ_t against the 2nΔ² bound of the Property-1
// proof.  A step that breaks an identity fails the bench (exit 1).
#include "support/bench_common.hpp"

#include "core/lyapunov.hpp"
#include "core/scenarios.hpp"

namespace {

using namespace lgg;

void print_report() {
  bench::banner(
      "E17: Lyapunov ledger audit (Eqs. 1, 3, 4)",
      "Per-step identities of the Section III proof verified exactly over "
      "T = 2000 steps; max delta_t vs the 2 n Delta^2 ceiling used by "
      "Property 1.");
  analysis::Table table({"instance", "loss", "steps", "all identities",
                         "max delta_t", "2nD^2", "below"});
  struct Case {
    std::string label;
    core::SdNetwork net;
    double loss;
  };
  std::vector<Case> cases;
  cases.push_back({"fat_path(4,x3) unsat",
                   core::scenarios::fat_path(4, 3, 1, 3), 0.0});
  cases.push_back({"fat_path(4,x3)+loss",
                   core::scenarios::fat_path(4, 3, 1, 3), 0.25});
  cases.push_back({"grid_single(3,5)", core::scenarios::grid_single(3, 5),
                   0.0});
  cases.push_back({"K_{3,3} sat@d*", core::scenarios::saturated_at_dstar(3),
                   0.0});
  cases.push_back({"barbell(3) saturated",
                   core::scenarios::barbell_bottleneck(3, 1, 2), 0.0});
  for (auto& c : cases) {
    core::SimulatorOptions options;
    options.seed = 2;
    core::Simulator sim(c.net, options);
    if (c.loss > 0) {
      sim.set_loss(std::make_unique<core::BernoulliLoss>(c.loss));
    }
    core::LyapunovAuditor auditor(c.net);
    sim.set_observer(&auditor);
    sim.run(2000);
    if (!auditor.all_ok()) bench::self_check_failed = true;
    const double n = static_cast<double>(c.net.node_count());
    const double d = static_cast<double>(c.net.max_degree());
    const double ceiling = 2.0 * n * d * d;
    table.add(c.label, c.loss, 2000, auditor.all_ok(), auditor.max_delta(),
              ceiling, auditor.max_delta() <= ceiling);
  }
  table.print(std::cout);
}

void BM_AuditedStep(benchmark::State& state) {
  const core::SdNetwork net = core::scenarios::grid_single(3, 5);
  core::SimulatorOptions options;
  core::Simulator sim(net, options);
  core::LyapunovAuditor auditor(net);
  sim.set_observer(&auditor);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.step());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AuditedStep);

void BM_UnauditedStep(benchmark::State& state) {
  core::SimulatorOptions options;
  core::Simulator sim(core::scenarios::grid_single(3, 5), options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.step());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UnauditedStep);

}  // namespace

LGG_BENCH_MAIN()
