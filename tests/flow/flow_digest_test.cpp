// Pinned flows.  FNV-1a digests over every arc's residual after each
// max-flow solver, across an IncrementalMaxFlow mutation sequence, over
// path decompositions and over a FlowRouting trajectory.  Value checks
// (FeasibilityDifferential, the solver tests) accept any maximum flow; these
// pin *which* one, arc for arc, because path decomposition, core/flow_plan
// and the FlowRouting baseline read the flow itself.  A change to a solver's
// arc visiting order shows up here; re-record only on purpose.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "baselines/flow_routing.hpp"
#include "common/rng.hpp"
#include "core/faults.hpp"
#include "core/scenarios.hpp"
#include "core/simulator.hpp"
#include "flow/feasibility.hpp"
#include "flow/incremental.hpp"
#include "flow/max_flow.hpp"
#include "flow/path_decomposition.hpp"
#include "graph/generators.hpp"

namespace lgg::flow {
namespace {

class Fnv1a {
 public:
  void i64(std::int64_t v) {
    auto u = static_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i, u >>= 8) {
      h_ ^= u & 0xFFu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void residuals(const FlowNetwork& net) {
    i64(net.arc_count());
    for (ArcId a = 0; a < net.arc_count(); ++a) i64(net.residual(a));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

struct Instance {
  graph::Multigraph g;
  std::vector<RatedNode> sources;
  std::vector<RatedNode> sinks;
};

/// A small random S-D multigraph: parallel edges, 1–3 sources, 1–2 sinks,
/// and in about a quarter of the draws a node that is both (Fig. 4).
Instance fuzz_instance(std::uint64_t seed) {
  Rng rng(seed);
  const auto n = static_cast<NodeId>(rng.uniform_int(2, 12));
  Instance in{graph::Multigraph(n), {}, {}};
  const auto m = rng.uniform_int(0, 3 * n);
  for (std::int64_t i = 0; i < m; ++i) {
    const auto u = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    auto v = static_cast<NodeId>(rng.uniform_int(0, n - 2));
    if (v >= u) ++v;
    const int copies = rng.bernoulli(0.3) ? 2 : 1;
    for (int c = 0; c < copies; ++c) in.g.add_edge(u, v);
  }
  const auto k_src = std::min<std::int64_t>(rng.uniform_int(1, 3), n - 1);
  for (std::int64_t i = 0; i < k_src; ++i) {
    in.sources.push_back({static_cast<NodeId>(i), rng.uniform_int(1, 7)});
  }
  const bool generalized = rng.bernoulli(0.25);
  in.sinks.push_back({generalized ? 0 : n - 1, rng.uniform_int(1, 9)});
  if (rng.bernoulli(0.5)) in.sinks.push_back({n - 1, rng.uniform_int(1, 9)});
  if (in.sinks.size() == 2 && in.sinks[0].node == in.sinks[1].node) {
    in.sinks.pop_back();
  }
  return in;
}

Instance from_sd(const core::SdNetwork& net) {
  return {net.topology(), net.source_rates(), net.sink_rates()};
}

/// The G* variants the pipeline solves: unit links at the rates, f*'s
/// unbounded source arcs, and the parametric units of 1/B at the rates.
std::vector<ExtendedGraphOptions> gstar_variants() {
  return {ExtendedGraphOptions{},
          ExtendedGraphOptions{.unbounded_sources = true},
          ExtendedGraphOptions{.edge_capacity = kEpsilonDenom,
                               .sink_scale = kEpsilonDenom,
                               .source_scale = kEpsilonDenom}};
}

/// Solves every G* variant of every instance from zero flow and digests
/// the value and every arc's residual.
std::uint64_t solver_digest(const std::vector<Instance>& instances,
                            FlowAlgorithm algo) {
  Fnv1a d;
  for (const Instance& in : instances) {
    for (const ExtendedGraphOptions& opt : gstar_variants()) {
      ExtendedGraph ext = build_extended_graph(in.g, in.sources, in.sinks, opt);
      d.i64(solve_max_flow(ext.net, ext.s_star, ext.d_star, algo));
      d.residuals(ext.net);
    }
  }
  return d.value();
}

std::vector<Instance> fuzzed(int count) {
  std::vector<Instance> out;
  for (int i = 0; i < count; ++i) {
    out.push_back(fuzz_instance(0xF10D0000u + static_cast<std::uint64_t>(i)));
  }
  return out;
}

std::vector<Instance> ledger_networks() {
  return {from_sd(core::scenarios::random_unsaturated(1024, 4096, 2, 2, 1)),
          from_sd(core::scenarios::random_unsaturated(1024, 4096, 2, 2, 7))};
}

std::vector<Instance> grid() {
  Instance in{graph::make_grid(12, 16), {}, {}};
  for (NodeId r = 0; r < 12; r += 3) {
    in.sources.push_back({r * 16, 2});
    in.sinks.push_back({r * 16 + 15, 3});
  }
  return {in};
}

struct SolverDigests {
  std::uint64_t dinic, fifo, highest, edmonds_karp;
};

void expect_solver_digests(const std::vector<Instance>& instances,
                           const SolverDigests& want) {
  EXPECT_EQ(solver_digest(instances, FlowAlgorithm::kDinic), want.dinic);
  EXPECT_EQ(solver_digest(instances, FlowAlgorithm::kPushRelabelFifo),
            want.fifo);
  EXPECT_EQ(solver_digest(instances, FlowAlgorithm::kPushRelabelHighest),
            want.highest);
  EXPECT_EQ(solver_digest(instances, FlowAlgorithm::kEdmondsKarp),
            want.edmonds_karp);
}

TEST(FlowDigest, SolversOnFuzzedMultigraphs) {
  expect_solver_digests(fuzzed(300),
                        {0xbf60bcc27ceb7507ULL, 0x91b1c6b443f4d7e9ULL,
                         0x6c96595acc8d683fULL, 0xbf60bcc27ceb7507ULL});
}

TEST(FlowDigest, SolversOnLedgerNetworks) {
  expect_solver_digests(ledger_networks(),
                        {0x09c664c6be051705ULL, 0x5e1185d37aa75ac5ULL,
                         0xe1d9c99728b9bc45ULL, 0x09c664c6be051705ULL});
}

TEST(FlowDigest, SolversOnGrid) {
  expect_solver_digests(grid(),
                        {0x3f253528d99cc221ULL, 0x71fd04dda9c97c81ULL,
                         0xe26307cb05abc301ULL, 0x3f253528d99cc221ULL});
}

/// Edge flips plus rate changes on nodes that were not rated at
/// construction, so the engine adds (s*, v) and (v, d*) arcs after its
/// first solve; digests the value and every residual after each mutation.
std::uint64_t incremental_digest(std::uint64_t seed, bool unbounded) {
  Rng rng(seed);
  const auto n = static_cast<NodeId>(40);
  graph::Multigraph g = graph::make_random_multigraph(n, 120, seed);
  std::vector<RatedNode> sources = {{0, 2}, {1, 1}};
  std::vector<RatedNode> sinks = {{n - 1, 2}, {n - 2, 1}};
  IncrementalMaxFlow inc(g, sources, sinks,
                         ExtendedGraphOptions{.unbounded_sources = unbounded});
  Fnv1a d;
  d.i64(inc.value());
  d.residuals(inc.network());
  for (int i = 0; i < 200; ++i) {
    const auto kind = rng.uniform_int(0, 9);
    const auto v = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    if (kind < 7) {
      const auto e =
          static_cast<EdgeId>(rng.uniform_int(0, g.edge_count() - 1));
      inc.set_edge_active(e, !inc.edge_active(e));
    } else if (kind < 8) {
      inc.set_source_rate(v, rng.uniform_int(0, 3));
    } else {
      inc.set_sink_rate(v, rng.uniform_int(0, 3));
    }
    d.i64(inc.value());
    d.residuals(inc.network());
  }
  return d.value();
}

TEST(FlowDigest, IncrementalSequenceAddsArcsAfterTheFirstSolve) {
  EXPECT_EQ(incremental_digest(3, false), 0x116dc16eb3384c2dULL);
  EXPECT_EQ(incremental_digest(4, true), 0xc642e74166efb17fULL);
}

/// Paths of the decomposition of a Dinic flow and of a push-relabel flow
/// (which may hold cycles to cancel), plus the zero flow left behind.
std::uint64_t decomposition_digest(const std::vector<Instance>& instances,
                                   FlowAlgorithm algo) {
  Fnv1a d;
  for (const Instance& in : instances) {
    ExtendedGraph ext = build_extended_graph(in.g, in.sources, in.sinks);
    d.i64(solve_max_flow(ext.net, ext.s_star, ext.d_star, algo));
    for (const FlowPath& p :
         decompose_into_paths(ext.net, ext.s_star, ext.d_star)) {
      d.i64(p.amount);
      d.i64(static_cast<std::int64_t>(p.nodes.size()));
      for (const NodeId v : p.nodes) d.i64(v);
      for (const ArcId a : p.arcs) d.i64(a);
    }
    d.residuals(ext.net);
  }
  return d.value();
}

TEST(FlowDigest, PathDecomposition) {
  std::vector<Instance> instances = fuzzed(100);
  for (Instance& in : grid()) instances.push_back(std::move(in));
  instances.push_back(
      from_sd(core::scenarios::random_unsaturated(256, 1024, 4, 4, 5)));
  EXPECT_EQ(decomposition_digest(instances, FlowAlgorithm::kDinic),
            0x152c0ab36e52ae14ULL);
  EXPECT_EQ(decomposition_digest(instances, FlowAlgorithm::kPushRelabelFifo),
            0x556b44c1d429e047ULL);
}

/// Every step's queues under the max-flow baseline router; random churn
/// makes it re-plan on the changed topology.
std::uint64_t flow_routing_digest(const core::SdNetwork& net, bool churn) {
  core::SimulatorOptions options;
  options.seed = 17;
  core::Simulator sim(net, options,
                      std::make_unique<baselines::FlowRoutingProtocol>());
  if (churn) {
    core::FaultSchedule schedule;
    schedule.set_random_churn({0.05, 0.3, {}});
    sim.set_faults(std::make_unique<core::FaultInjector>(std::move(schedule)));
  }
  Fnv1a d;
  for (int t = 0; t < 300; ++t) {
    sim.step();
    for (const PacketCount q : sim.queues()) d.i64(q);
  }
  EXPECT_TRUE(sim.conserves_packets());
  return d.value();
}

TEST(FlowDigest, FlowRoutingTrajectory) {
  EXPECT_EQ(flow_routing_digest(core::scenarios::grid_flow(5, 6, 1, 2), false),
            0xa87112150750f9e5ULL);
  EXPECT_EQ(flow_routing_digest(
                core::scenarios::random_unsaturated(64, 256, 3, 3, 9), true),
            0x7e22425d19584185ULL);
}

}  // namespace
}  // namespace lgg::flow
