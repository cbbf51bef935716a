// The certificate an SdNetwork carries: analyze() publishes its report in
// the network, copies share it, every role mutator drops it, and const
// callers on several threads see one report.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "core/faults.hpp"
#include "core/scenarios.hpp"
#include "core/sd_network.hpp"
#include "core/simulator.hpp"
#include "graph/generators.hpp"

namespace lgg::core {
namespace {

/// The same topology and specs, never analyzed.
SdNetwork rebuilt(const SdNetwork& net) {
  SdNetwork out(net.topology());
  for (NodeId v = 0; v < net.node_count(); ++v) out.set_spec(v, net.spec(v));
  return out;
}

void expect_same_report(const flow::FeasibilityReport& a,
                        const flow::FeasibilityReport& b) {
  EXPECT_EQ(a.arrival_rate, b.arrival_rate);
  EXPECT_EQ(a.fstar, b.fstar);
  EXPECT_EQ(a.max_flow_at_rates, b.max_flow_at_rates);
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.unsaturated, b.unsaturated);
  EXPECT_EQ(a.epsilon, b.epsilon);
  EXPECT_EQ(a.location.at_source, b.location.at_source);
  EXPECT_EQ(a.location.at_sink, b.location.at_sink);
  EXPECT_EQ(a.location.internal, b.location.internal);
  EXPECT_EQ(a.location.unique_at_source, b.location.unique_at_source);
}

bool same_report(const flow::FeasibilityReport& a,
                 const flow::FeasibilityReport& b) {
  return a.arrival_rate == b.arrival_rate && a.fstar == b.fstar &&
         a.feasible == b.feasible && a.unsaturated == b.unsaturated &&
         a.epsilon == b.epsilon;
}

/// Three parallel links per hop on a 4-node path: sources 0 and 1 (in 1
/// each), sink 3 (out 3).  Feasible and unsaturated, f* = 3.
SdNetwork two_source_fat_path() {
  SdNetwork net(graph::make_fat_path(4, 3));
  net.set_source(0, 1);
  net.set_source(1, 1);
  net.set_sink(3, 3);
  return net;
}

TEST(NetworkCertificate, AnalyzePublishesTheReport) {
  const SdNetwork net = two_source_fat_path();
  EXPECT_EQ(net.certificate(), nullptr);
  const flow::FeasibilityReport report = analyze(net);
  ASSERT_NE(net.certificate(), nullptr);
  expect_same_report(*net.certificate(), report);
  EXPECT_TRUE(report.feasible);
  EXPECT_TRUE(report.unsaturated);
  EXPECT_EQ(report.fstar, 3);
}

TEST(NetworkCertificate, EachRoleMutatorDropsIt) {
  // Every mutation changes the analysis, so a kept certificate would show.
  const std::vector<std::pair<const char*, std::function<void(SdNetwork&)>>>
      mutators = {
          {"set_source", [](SdNetwork& n) { n.set_source(0, 2); }},
          {"set_sink", [](SdNetwork& n) { n.set_sink(3, 2); }},
          {"set_generalized",
           [](SdNetwork& n) { n.set_generalized(2, 1, 0, 1); }},
          {"clear_role", [](SdNetwork& n) { n.clear_role(1); }},
          {"set_spec", [](SdNetwork& n) { n.set_spec(3, NodeSpec{0, 1, 0}); }},
      };
  for (const auto& [name, mutate] : mutators) {
    SdNetwork net = two_source_fat_path();
    const flow::FeasibilityReport before = analyze(net);
    ASSERT_NE(net.certificate(), nullptr) << name;
    mutate(net);
    EXPECT_EQ(net.certificate(), nullptr) << name;
    const flow::FeasibilityReport fresh = analyze(rebuilt(net));
    EXPECT_FALSE(same_report(before, fresh)) << name;
    expect_same_report(analyze(net), fresh);
  }
}

TEST(NetworkCertificate, ACopySharesIt) {
  const SdNetwork net = two_source_fat_path();
  const SdNetwork before_analysis = net;
  (void)analyze(net);
  const SdNetwork copy = net;
  ASSERT_NE(net.certificate(), nullptr);
  EXPECT_EQ(copy.certificate(), net.certificate());
  EXPECT_EQ(before_analysis.certificate(), nullptr);

  SdNetwork assigned;
  assigned = copy;
  EXPECT_EQ(assigned.certificate(), net.certificate());
  const SdNetwork moved = std::move(assigned);
  EXPECT_EQ(moved.certificate(), net.certificate());

  // Mutating a copy drops only the copy's certificate.
  SdNetwork changed = copy;
  changed.set_source(0, 2);
  EXPECT_EQ(changed.certificate(), nullptr);
  EXPECT_EQ(copy.certificate(), net.certificate());
}

TEST(NetworkCertificate, RandomUnsaturatedHandsItsReportOn) {
  const SdNetwork net =
      scenarios::random_unsaturated(24, 72, 2, 2, /*seed=*/5);
  ASSERT_NE(net.certificate(), nullptr);
  EXPECT_TRUE(net.certificate()->unsaturated);
  const Simulator sim(net, SimulatorOptions{});
  EXPECT_EQ(sim.network().certificate(), net.certificate());
  expect_same_report(analyze(sim.network()), analyze(rebuilt(net)));
}

TEST(NetworkCertificate, ChurnedSimulatorSeesTheNewSpecs) {
  SdNetwork net = two_source_fat_path();
  (void)analyze(net);
  SimulatorOptions options;
  options.seed = 3;
  Simulator sim(std::move(net), options);
  FaultSchedule churn = parse_fault_spec(
      "nudge:node=0,at=2,din=2;"
      "node_leave:node=1,at=4;"
      "node_join:node=1,at=6");
  churn.validate_strict(sim.network());
  sim.set_faults(std::make_unique<FaultInjector>(std::move(churn), 9));
  ASSERT_NE(sim.network().certificate(), nullptr);
  flow::FeasibilityReport last = analyze(sim.network());
  for (const TimeStep at : {2, 4, 6}) {
    while (sim.now() <= at) sim.step();
    EXPECT_EQ(sim.network().certificate(), nullptr) << "step " << at;
    const flow::FeasibilityReport fresh = analyze(rebuilt(sim.network()));
    EXPECT_FALSE(same_report(last, fresh)) << "step " << at;
    expect_same_report(analyze(sim.network()), fresh);
    last = fresh;
  }
}

TEST(NetworkCertificate, FourThreadsAnalyzeOneConstNetwork) {
  const SdNetwork net =
      rebuilt(scenarios::random_unsaturated(64, 256, 2, 2, /*seed=*/8));
  ASSERT_EQ(net.certificate(), nullptr);
  std::vector<flow::FeasibilityReport> reports(4);
  std::vector<std::shared_ptr<const flow::FeasibilityReport>> shared(4);
  {
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < reports.size(); ++i) {
      threads.emplace_back([&net, &reports, &shared, i] {
        reports[i] = analyze(net);
        const SdNetwork copy = net;
        shared[i] = copy.certificate();
      });
    }
    for (std::thread& t : threads) t.join();
  }
  ASSERT_NE(net.certificate(), nullptr);
  for (std::size_t i = 0; i < reports.size(); ++i) {
    expect_same_report(reports[i], *net.certificate());
    EXPECT_EQ(shared[i], net.certificate()) << "thread " << i;
  }
}

}  // namespace
}  // namespace lgg::core
