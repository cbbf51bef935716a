// The incrementally patched feasibility certificate: after any sequence of
// edge flips and rate changes, the sentinel's patched verdict must equal
// the verdict of engines built from scratch on the mutated instance, and a
// governed run under churn must never open a certificate-free window.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <utility>

#include "control/governor.hpp"
#include "core/faults.hpp"
#include "core/scenarios.hpp"
#include "core/simulator.hpp"
#include "core/topology_delta.hpp"
#include "flow/incremental.hpp"
#include "graph/multigraph.hpp"

namespace lgg::control {
namespace {

/// (feasible, unsaturated) from cold engines on the instance as it stands.
std::pair<bool, bool> expected_certificate(const core::SdNetwork& net,
                                           const graph::EdgeMask* mask) {
  flow::ExtendedGraphOptions margin;
  margin.edge_capacity = flow::kEpsilonDenom;
  margin.sink_scale = flow::kEpsilonDenom;
  margin.source_scale = flow::kEpsilonDenom + 1;
  flow::IncrementalMaxFlow exact(net.topology(), net.source_rates(),
                                 net.sink_rates(),
                                 flow::ExtendedGraphOptions{}, mask);
  flow::IncrementalMaxFlow scaled(net.topology(), net.source_rates(),
                                  net.sink_rates(), margin, mask);
  const bool feasible = exact.saturates_sources();
  return {feasible, feasible && scaled.saturates_sources()};
}

TEST(CertificatePatch, MatchesColdEnginesUnderRandomizedChurn) {
  core::SdNetwork net = core::scenarios::grid_single(3, 4);
  SaturationSentinel sentinel(net);
  graph::EdgeMask mask(net.topology().edge_count());
  sentinel.patch_certificate(&mask, nullptr);  // builds the warm engines

  std::mt19937 rng(0x5EED);
  const EdgeId edges = net.topology().edge_count();
  for (int round = 0; round < 120; ++round) {
    core::TopologyDelta delta;
    switch (rng() % 3) {
      case 0: {  // flip a random edge
        const EdgeId e = static_cast<EdgeId>(rng() % edges);
        const bool next = !mask.active(e);
        mask.set_active(e, next);
        delta.edges.push_back({e, next});
        break;
      }
      case 1: {  // nudge a random node's in-rate within [0, 3]
        const NodeId v = static_cast<NodeId>(rng() % net.node_count());
        core::NodeSpec spec = net.spec(v);
        const core::NodeSpec before = spec;
        spec.in = static_cast<Cap>(rng() % 4);
        net.set_spec(v, spec);
        delta.rates.push_back({v, before, spec});
        break;
      }
      default: {  // nudge a random node's out-rate within [0, 3]
        const NodeId v = static_cast<NodeId>(rng() % net.node_count());
        core::NodeSpec spec = net.spec(v);
        const core::NodeSpec before = spec;
        spec.out = static_cast<Cap>(rng() % 4);
        net.set_spec(v, spec);
        delta.rates.push_back({v, before, spec});
        break;
      }
    }
    sentinel.patch_certificate(&mask, &delta);
    const auto [feasible, unsaturated] = expected_certificate(net, &mask);
    ASSERT_EQ(sentinel.certificate_feasible(), feasible)
        << "round " << round;
    ASSERT_EQ(sentinel.certificate_unsaturated(), unsaturated)
        << "round " << round;
  }
  EXPECT_GE(sentinel.certificate_patches(), 120u);
  // The whole sequence ran on warm patches; nothing forced a recompute.
  EXPECT_EQ(sentinel.certificate_recomputes(), 0u);
}

TEST(CertificatePatch, SelfHealsAcrossMissedMaskFlips) {
  // patch_certificate reconciles against the mask it is handed, so edges
  // flipped while no patch was running (e.g. between governor steps under
  // the non-incremental path) are still picked up on the next call.
  core::SdNetwork net = core::scenarios::grid_single(3, 4);
  SaturationSentinel sentinel(net);
  graph::EdgeMask mask(net.topology().edge_count());
  sentinel.patch_certificate(&mask, nullptr);
  ASSERT_TRUE(sentinel.certificate_feasible());

  // Flip three edges without telling the sentinel about any of them.
  mask.set_active(0, false);
  mask.set_active(2, false);
  mask.set_active(5, false);
  sentinel.patch_certificate(&mask, nullptr);
  auto [feasible, unsaturated] = expected_certificate(net, &mask);
  EXPECT_EQ(sentinel.certificate_feasible(), feasible);
  EXPECT_EQ(sentinel.certificate_unsaturated(), unsaturated);

  mask.set_all(true);
  sentinel.patch_certificate(&mask, nullptr);
  EXPECT_TRUE(sentinel.certificate_feasible());
}

TEST(CertificatePatch, RateChurnDropsStateBoundButKeepsCertificate) {
  core::SdNetwork net = core::scenarios::grid_single(3, 4);
  SaturationSentinel sentinel(net);
  ASSERT_TRUE(sentinel.certificate_unsaturated());
  ASSERT_TRUE(sentinel.state_bound().has_value());

  graph::EdgeMask mask(net.topology().edge_count());
  const NodeId source = net.sources().front();
  core::NodeSpec spec = net.spec(source);
  const core::NodeSpec before = spec;
  spec.in += 1;
  net.set_spec(source, spec);
  core::TopologyDelta delta;
  delta.rates.push_back({source, before, spec});
  sentinel.patch_certificate(&mask, &delta);
  // The construction-time Lemma-1 bound no longer applies...
  EXPECT_FALSE(sentinel.state_bound().has_value());
  // ...but the certificate itself is exact for the new rates.
  const auto [feasible, unsaturated] = expected_certificate(net, &mask);
  EXPECT_EQ(sentinel.certificate_feasible(), feasible);
  EXPECT_EQ(sentinel.certificate_unsaturated(), unsaturated);
}

TEST(GovernorChurn, CertificateStaysContinuouslyValidUnderChurn) {
  // A feasible grid under scheduled churn, governed: every topology bump
  // is patched the same step, and the feasible run sheds nothing.
  core::SdNetwork net = core::scenarios::grid_single(3, 4);
  core::SimulatorOptions options;
  options.seed = 21;
  core::Simulator sim(std::move(net), options);
  const NodeId sink = sim.network().sinks().back();
  core::FaultSchedule schedule;
  schedule.add({.kind = core::FaultKind::kEdgeRemove, .at = 10, .edge = 1});
  schedule.add({.kind = core::FaultKind::kEdgeAdd, .at = 30, .edge = 1});
  schedule.add({.kind = core::FaultKind::kNodeLeave, .node = sink, .at = 40});
  schedule.add({.kind = core::FaultKind::kNodeJoin, .node = sink, .at = 60});
  schedule.validate_strict(sim.network());
  sim.set_faults(std::make_unique<core::FaultInjector>(schedule, 1));

  control::AdmissionGovernor governor(sim.network());
  sim.set_admission(&governor);
  sim.run(100);

  // Four churn steps → at least four patches, and no from-scratch
  // recomputes on the incremental path.
  EXPECT_GE(governor.sentinel().certificate_patches(), 4u);
  EXPECT_EQ(governor.sentinel().certificate_recomputes(), 0u);
  EXPECT_TRUE(governor.sentinel().certificate_feasible());
  EXPECT_EQ(governor.total_shed(), 0);
  EXPECT_EQ(governor.multiplier(), 1.0);
}

TEST(GovernorChurn, SeveringChurnFlipsCertificateInfeasibleImmediately) {
  // single_path: removing the only edge out of the source makes the
  // instance infeasible; the patched certificate must say so on the very
  // step the edge goes down, and recover when it returns.
  core::SdNetwork net = core::scenarios::single_path(3, 1, 2);
  core::SimulatorOptions options;
  options.seed = 4;
  core::Simulator sim(std::move(net), options);
  core::FaultSchedule schedule;
  schedule.add({.kind = core::FaultKind::kEdgeRemove, .at = 10, .edge = 0});
  schedule.add({.kind = core::FaultKind::kEdgeAdd, .at = 20, .edge = 0});
  sim.set_faults(std::make_unique<core::FaultInjector>(schedule, 1));

  control::AdmissionGovernor governor(sim.network());
  sim.set_admission(&governor);

  sim.run(10);
  EXPECT_TRUE(governor.sentinel().certificate_feasible());
  sim.run(1);  // step 10: the cut fires, begin_step patched before admit
  EXPECT_FALSE(governor.sentinel().certificate_feasible());
  EXPECT_FALSE(governor.sentinel().certificate_unsaturated());
  sim.run(10);  // step 20 restores the edge
  EXPECT_TRUE(governor.sentinel().certificate_feasible());
}

}  // namespace
}  // namespace lgg::control
