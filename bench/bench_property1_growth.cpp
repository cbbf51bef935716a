// E2 — Property 1: on unsaturated networks the one-step growth of the
// network state satisfies P_{t+1} − P_t <= 5 n Δ², for every step, under
// both tie-break policies and under losses.  A step above the bound fails
// the bench (exit 1).
#include "support/bench_common.hpp"

#include "analysis/timeseries.hpp"
#include "core/bounds.hpp"
#include "core/scenarios.hpp"

namespace {

using namespace lgg;

struct Case {
  std::string label;
  core::SdNetwork net;
  double loss_p;
  core::TieBreak tie_break;
};

std::vector<Case> cases() {
  std::vector<Case> out;
  out.push_back({"fat_path(4,x3)", core::scenarios::fat_path(4, 3, 1, 3),
                 0.0, core::TieBreak::kById});
  out.push_back({"fat_path(4,x3)+loss.25",
                 core::scenarios::fat_path(4, 3, 1, 3), 0.25,
                 core::TieBreak::kById});
  out.push_back({"grid_single(3,5)", core::scenarios::grid_single(3, 5),
                 0.0, core::TieBreak::kById});
  out.push_back({"grid_single(3,5) rand-tb",
                 core::scenarios::grid_single(3, 5), 0.0,
                 core::TieBreak::kRandomShuffle});
  out.push_back({"bipartite(3,3)", core::scenarios::bipartite(3, 3, 1, 2),
                 0.0, core::TieBreak::kById});
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    out.push_back({"random_unsaturated(12)#" + std::to_string(seed),
                   core::scenarios::random_unsaturated(12, 40, 2, 2, seed),
                   0.0, core::TieBreak::kById});
  }
  return out;
}

void print_report() {
  bench::banner("E2: Property 1 growth bound",
                "max_t (P_{t+1} - P_t) vs the paper's 5 n Delta^2, "
                "T = 3000 steps from empty queues.");
  analysis::Table table({"instance", "n", "delta", "eps", "bound 5nD^2",
                         "max growth", "holds", "slack factor"});
  for (auto& c : cases()) {
    const auto report = core::analyze(c.net);
    const auto bounds = core::unsaturated_bounds(c.net, report);
    bench::RunSpec spec;
    spec.steps = 3000;
    spec.protocol = std::make_unique<core::LggProtocol>(c.tie_break);
    if (c.loss_p > 0) {
      spec.loss = std::make_unique<core::BernoulliLoss>(c.loss_p);
    }
    const auto recorder = bench::run_trajectory(c.net, std::move(spec));
    const double max_growth =
        analysis::max_increment(recorder.network_state());
    if (max_growth > bounds.growth) bench::self_check_failed = true;
    table.add(c.label, bounds.n, bounds.delta, bounds.epsilon, bounds.growth,
              max_growth, max_growth <= bounds.growth,
              max_growth > 0 ? bounds.growth / max_growth : 0.0);
  }
  table.print(std::cout);
}

void BM_LggStepUnsaturated(benchmark::State& state) {
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
BENCHMARK(BM_LggStepUnsaturated)->Arg(16)->Arg(64)->Arg(256);

}  // namespace

LGG_BENCH_MAIN()
