// Soundness and liveness of the saturation sentinel.
//
// Soundness: on certified-unsaturated instances the sentinel must never
// report kOverloaded — across seeds, loss models, and observation
// cadences — because Property 1 caps every clean-LGG step at exactly the
// Page–Hinkley allowance, keeping the statistic at 0.
//
// Liveness: on the planted infeasible chain (rate 3 against cut capacity
// 1, queue growing 2/step) the alarm fires within a documented budget of
// 100 steps (the arithmetic in docs/control.md puts it near step 27).
#include <gtest/gtest.h>

#include <sstream>

#include "control/sentinel.hpp"
#include "core/loss.hpp"
#include "core/simulator.hpp"
#include "core/trace_io.hpp"
#include "graph/multigraph.hpp"

namespace lgg {
namespace {

constexpr const char* kUnsaturatedFixtures[] = {
    // data/demo.sdnet: 3-lane relay with a generalized mid-node.
    "nodes 4\n"
    "edge 0 1\nedge 0 1\nedge 0 1\n"
    "edge 1 2\nedge 1 2\nedge 1 2\n"
    "edge 2 3\nedge 2 3\nedge 2 3\n"
    "role 0 1 0 0\nrole 1 1 1 2\nrole 3 0 3 0\n",
    // data/relay_wide.sdnet: two sources through a wide shared relay.
    "nodes 5\n"
    "edge 0 2\nedge 0 2\nedge 1 2\nedge 1 2\n"
    "edge 2 3\nedge 2 3\nedge 2 4\nedge 2 4\n"
    "role 0 1 0 0\nrole 1 1 0 0\nrole 3 0 2 0\nrole 4 0 2 0\n",
};

constexpr const char* kInfeasibleChain =
    // data/infeasible.sdnet: rate 3 through a unit chain.
    "nodes 4\n"
    "edge 0 1\nedge 1 2\nedge 2 3\n"
    "role 0 3 0 0\nrole 3 0 3 0\n";

TEST(SaturationSentinel, CertifiesUnsaturatedFixtures) {
  for (const char* text : kUnsaturatedFixtures) {
    const core::SdNetwork net = core::network_from_string(text);
    control::SaturationSentinel sentinel(net);
    EXPECT_TRUE(sentinel.certificate_feasible());
    EXPECT_TRUE(sentinel.certificate_unsaturated());
    ASSERT_TRUE(sentinel.state_bound().has_value());
    EXPECT_GT(*sentinel.state_bound(), sentinel.growth_bound());
  }
}

TEST(SaturationSentinel, NoCertificateOnInfeasibleInstance) {
  const core::SdNetwork net = core::network_from_string(kInfeasibleChain);
  control::SaturationSentinel sentinel(net);
  EXPECT_FALSE(sentinel.certificate_feasible());
  EXPECT_FALSE(sentinel.certificate_unsaturated());
  EXPECT_FALSE(sentinel.state_bound().has_value());
}

// The soundness sweep: seeds x loss models x observation cadences.  A
// single kOverloaded verdict anywhere falsifies the sentinel.
TEST(SaturationSentinel, NeverOverloadedOnUnsaturatedInstances) {
  for (const char* text : kUnsaturatedFixtures) {
    for (const std::uint64_t seed : {1u, 7u, 42u, 1234u, 99999u}) {
      for (const double loss : {0.0, 0.1, 0.3}) {
        for (const TimeStep cadence : {TimeStep{1}, TimeStep{64}}) {
          SCOPED_TRACE(::testing::Message()
                       << "seed=" << seed << " loss=" << loss
                       << " cadence=" << cadence);
          core::SimulatorOptions options;
          options.seed = seed;
          core::Simulator sim(core::network_from_string(text), options);
          if (loss > 0.0) {
            sim.set_loss(std::make_unique<core::BernoulliLoss>(loss));
          }
          control::SaturationSentinel sentinel(sim.network());
          for (TimeStep t = 0; t < 2000; t += cadence) {
            sim.run(cadence);
            sentinel.observe(sim.now(), sim.network_state());
            ASSERT_NE(sentinel.mode(),
                      control::SaturationMode::kOverloaded);
            ASSERT_FALSE(sentinel.diverged(0.0, sim.network_state()));
          }
          // Property 1 calibration: the Page-Hinkley statistic is not
          // merely under threshold, it is identically zero.
          EXPECT_EQ(sentinel.page_hinkley(), 0.0);
        }
      }
    }
  }
}

TEST(SaturationSentinel, FiresWithinBudgetOnInfeasibleInstance) {
  core::Simulator sim(core::network_from_string(kInfeasibleChain));
  control::SaturationSentinel sentinel(sim.network());
  TimeStep fired_at = -1;
  for (TimeStep t = 0; t < 200; ++t) {
    sim.step();
    sentinel.observe(sim.now(), sim.network_state());
    if (sentinel.mode() == control::SaturationMode::kOverloaded) {
      fired_at = sim.now();
      break;
    }
  }
  ASSERT_GE(fired_at, 0) << "sentinel never fired on the infeasible chain";
  // Documented detection budget (docs/control.md): 100 steps for this
  // fixture; the closed-form estimate lands near step 27.
  EXPECT_LE(fired_at, 100);
}

TEST(SaturationSentinel, HysteresisHoldsModeUntilStatisticDrains) {
  core::Simulator sim(core::network_from_string(kInfeasibleChain));
  control::SaturationSentinel sentinel(sim.network());
  while (sentinel.mode() != control::SaturationMode::kOverloaded) {
    sim.step();
    sentinel.observe(sim.now(), sim.network_state());
    ASSERT_LT(sim.now(), 200);
  }
  // Feed a flat potential: drift 0 drains PH by one allowance per step,
  // but the mode must stay overloaded until PH < lambda/4.
  const double frozen = sim.network_state();
  TimeStep t = sim.now();
  const double lambda =
      sentinel.growth_bound() * control::SentinelOptions{}.ph_threshold;
  while (sentinel.page_hinkley() >= lambda / 4.0) {
    EXPECT_EQ(sentinel.mode(), control::SaturationMode::kOverloaded);
    sentinel.observe(++t, frozen);
  }
  EXPECT_NE(sentinel.mode(), control::SaturationMode::kOverloaded);
}

TEST(SaturationSentinel, NoncompliantOffersSuspendCertificateOverride) {
  const core::SdNetwork net =
      core::network_from_string(kUnsaturatedFixtures[0]);
  control::SaturationSentinel sentinel(net);
  // Build up a compliance streak, then break it.
  double p = 0.0;
  TimeStep t = 0;
  for (; t < 200; ++t) sentinel.observe(t, p);
  sentinel.note_noncompliant_offer();
  // With the override suspended, hostile super-Property-1 drift can reach
  // the statistical alarm even though the instance is certified.
  const double spike = sentinel.growth_bound() * 20.0;
  for (int i = 0; i < 50 &&
                  sentinel.mode() != control::SaturationMode::kOverloaded;
       ++i) {
    p += spike;
    sentinel.observe(++t, p);
  }
  EXPECT_EQ(sentinel.mode(), control::SaturationMode::kOverloaded);
}

TEST(SaturationSentinel, StateRoundTripsBitwise) {
  core::Simulator sim(core::network_from_string(kInfeasibleChain));
  control::SaturationSentinel sentinel(sim.network());
  for (TimeStep t = 0; t < 50; ++t) {
    sim.step();
    sentinel.observe(sim.now(), sim.network_state());
  }
  std::ostringstream first;
  sentinel.save_state(first);

  control::SaturationSentinel twin(sim.network());
  std::istringstream in(first.str());
  twin.load_state(in);
  EXPECT_EQ(twin.mode(), sentinel.mode());
  EXPECT_EQ(twin.page_hinkley(), sentinel.page_hinkley());
  EXPECT_EQ(twin.drift_estimate(), sentinel.drift_estimate());
  EXPECT_EQ(twin.time_in_mode(), sentinel.time_in_mode());
  std::ostringstream second;
  twin.save_state(second);
  EXPECT_EQ(first.str(), second.str());
}

}  // namespace
}  // namespace lgg
