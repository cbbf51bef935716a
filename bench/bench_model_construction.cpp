// E1 — Fig. 1/2, Definitions 1–4: model construction.  For a sweep of
// topologies, the feasibility analysis (f*, feasibility, saturation, ε)
// agrees across all max-flow solvers, and the derived classification is
// printed as the paper's model would predict it.  A row whose solvers
// disagree makes the binary exit 1.
#include "support/bench_common.hpp"

#include "core/scenarios.hpp"
#include "flow/max_flow.hpp"
#include "graph/generators.hpp"

namespace {

using namespace lgg;

struct Row {
  const char* label;
  core::SdNetwork net;
};

std::vector<Row> instances() {
  std::vector<Row> rows;
  rows.push_back({"path(8) in=1", core::scenarios::single_path(8, 1, 1)});
  rows.push_back({"fat_path(4,x3) in=1", core::scenarios::fat_path(4, 3, 1, 3)});
  rows.push_back({"fat_path(4,x3) in=3", core::scenarios::fat_path(4, 3, 3, 3)});
  rows.push_back({"grid_single(4,6)", core::scenarios::grid_single(4, 6)});
  rows.push_back({"grid_flow(4,6)", core::scenarios::grid_flow(4, 6)});
  rows.push_back({"bipartite(4,4)", core::scenarios::bipartite(4, 4, 1, 2)});
  rows.push_back({"barbell(4) in=1", core::scenarios::barbell_bottleneck(4, 1, 2)});
  rows.push_back({"barbell(4) in=3", core::scenarios::barbell_bottleneck(4, 3, 2)});
  rows.push_back({"K_{3,3} sat@d*", core::scenarios::saturated_at_dstar(3)});
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    rows.push_back({"random_unsaturated(16)",
                    core::scenarios::random_unsaturated(16, 56, 3, 3, seed)});
  }
  return rows;
}

void print_report() {
  bench::banner("E1: model construction (Fig. 1-2, Defs 1-4)",
                "Feasibility/saturation classification of the instance zoo; "
                "all four max-flow solvers must agree on f*.");
  analysis::Table table({"instance", "n", "delta", "rate", "f*", "feasible",
                         "unsaturated", "eps", "cut@s*", "cut@d*",
                         "internal", "solvers_agree"});
  for (auto& row : instances()) {
    const auto report = core::analyze(row.net);
    // Cross-check f* across solvers.
    bool agree = true;
    const auto sources = row.net.source_rates();
    const auto sinks = row.net.sink_rates();
    for (const auto algo :
         {flow::FlowAlgorithm::kPushRelabelFifo,
          flow::FlowAlgorithm::kPushRelabelHighest,
          flow::FlowAlgorithm::kEdmondsKarp}) {
      flow::ExtendedGraphOptions opt;
      opt.unbounded_sources = true;
      flow::ExtendedGraph ext = flow::build_extended_graph(
          row.net.topology(), sources, sinks, opt);
      const Cap fstar =
          flow::solve_max_flow(ext.net, ext.s_star, ext.d_star, algo);
      agree = agree && (fstar == report.fstar);
    }
    if (!agree) bench::self_check_failed = true;
    table.add(row.label, row.net.node_count(), row.net.max_degree(),
              report.arrival_rate, report.fstar, report.feasible,
              report.unsaturated, report.epsilon, report.location.at_source,
              report.location.at_sink, report.location.internal, agree);
  }
  table.print(std::cout);
}

void BM_AnalyzeFeasibility(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  const core::SdNetwork net = core::scenarios::random_unsaturated(
      n, static_cast<EdgeId>(4 * n), 2, 2, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::analyze(net));
  }
}
BENCHMARK(BM_AnalyzeFeasibility)->Arg(16)->Arg(32)->Arg(64);

void BM_BuildExtendedGraph(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  const core::SdNetwork net = core::scenarios::random_unsaturated(
      n, static_cast<EdgeId>(4 * n), 2, 2, 11);
  const auto sources = net.source_rates();
  const auto sinks = net.sink_rates();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        flow::build_extended_graph(net.topology(), sources, sinks));
  }
}
BENCHMARK(BM_BuildExtendedGraph)->Arg(32)->Arg(128);

}  // namespace

LGG_BENCH_MAIN()
