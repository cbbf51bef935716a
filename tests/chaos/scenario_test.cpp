#include "chaos/scenario.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/require.hpp"
#include "core/scenarios.hpp"

namespace lgg::chaos {
namespace {

TEST(OracleNames, RoundTripAndRejectUnknown) {
  EXPECT_EQ(oracles_to_string(0), "none");
  EXPECT_EQ(oracles_from_string("none"), 0u);
  const std::uint32_t all = kOracleConservation | kOracleGrowth |
                            kOracleState | kOracleRBound | kOracleCheckpoint |
                            kOracleContract;
  EXPECT_EQ(oracles_from_string(oracles_to_string(all)), all);
  EXPECT_EQ(oracles_from_string(oracles_to_string(kOracleAlwaysSound)),
            kOracleAlwaysSound);
  EXPECT_THROW((void)oracles_from_string("conservation,quantum"),
               ContractViolation);
}

TEST(ScenarioIo, WriteReadIsIdentity) {
  ScenarioConfig c;
  c.label = "round-trip";
  c.network = core::scenarios::fat_path(5, 2, 1, 2);
  c.horizon = 777;
  c.seed = 12345;
  c.loss = 0.125;
  c.arrival_scale = 0.9375;
  c.churn_off = 0.0625;
  c.churn_on = 0.5;
  c.matching = true;
  c.declaration = core::DeclarationPolicy::kDeclareZero;
  c.faults.add({core::FaultKind::kByzantine, 2, 10, -1,
                core::CrashMode::kWipe, 0, 42});
  c.divergence_bound = 1e9;
  c.expect_stable = true;
  c.strict_declarations = true;
  c.check_every = 16;

  const std::string text = to_string(c);
  const ScenarioConfig back = scenario_from_string(text);
  // Serializing the parse again must reproduce the text exactly — that is
  // what makes violation artifacts replayable bit-for-bit.
  EXPECT_EQ(to_string(back), text);
  EXPECT_EQ(back.label, c.label);
  EXPECT_EQ(back.seed, c.seed);
  EXPECT_EQ(back.horizon, c.horizon);
  EXPECT_EQ(back.loss, c.loss);
  EXPECT_EQ(back.arrival_scale, c.arrival_scale);
  EXPECT_EQ(back.declaration, c.declaration);
  EXPECT_EQ(back.faults.events().size(), 1u);
  EXPECT_EQ(back.faults.events()[0].declare, 42);
  EXPECT_EQ(back.network.node_count(), c.network.node_count());
  EXPECT_TRUE(back.strict_declarations);
  EXPECT_TRUE(back.expect_stable);
}

TEST(ScenarioIo, ChurnEventsStanzaRoundTripsExactly) {
  ScenarioConfig c;
  c.label = "churn-round-trip";
  c.network = core::scenarios::grid_single(3, 4);
  c.churn_events.add(
      {.kind = core::FaultKind::kEdgeRemove, .at = 20, .edge = 1});
  c.churn_events.add(
      {.kind = core::FaultKind::kEdgeAdd, .at = 35, .edge = 1});
  c.churn_events.add(
      {.kind = core::FaultKind::kNodeLeave, .node = 5, .at = 50});
  c.churn_events.add(
      {.kind = core::FaultKind::kNodeJoin, .node = 5, .at = 80});
  c.churn_events.add({.kind = core::FaultKind::kCapacityNudge,
                      .node = 0,
                      .at = 60,
                      .din = 1,
                      .dout = -1});
  // A windowed fault rides along in its own stanza.
  c.faults.add({core::FaultKind::kCrash, 2, 10, 5});

  const std::string text = to_string(c);
  EXPECT_NE(text.find("churn_events "), std::string::npos);
  const ScenarioConfig back = scenario_from_string(text);
  EXPECT_EQ(to_string(back), text);
  ASSERT_EQ(back.churn_events.events().size(), 5u);
  EXPECT_EQ(back.churn_events.events()[0].kind,
            core::FaultKind::kEdgeRemove);
  EXPECT_EQ(back.churn_events.events()[4].din, 1);
  EXPECT_EQ(back.churn_events.events()[4].dout, -1);
  EXPECT_EQ(back.faults.events().size(), 1u);
}

TEST(ScenarioIo, ChurnEventsStanzaRejectsNonChurnClauses) {
  ScenarioConfig c;
  c.network = core::scenarios::single_path(3, 1, 2);
  std::string text = to_string(c);
  const auto pos = text.find("network\n");
  ASSERT_NE(pos, std::string::npos);
  text.insert(pos, "churn_events crash:node=1,at=10,for=5,mode=wipe\n");
  EXPECT_THROW((void)scenario_from_string(text), ContractViolation);
}

TEST(ScenarioIo, SkipsLeadingCommentsAndRejectsBadMagic) {
  ScenarioConfig c;
  c.network = core::scenarios::single_path(3, 1, 2);
  const std::string text = "# a fixture comment\n\n" + to_string(c);
  EXPECT_NO_THROW((void)scenario_from_string(text));
  EXPECT_THROW((void)scenario_from_string("lgg-scenario v9\n"),
               ContractViolation);
  EXPECT_THROW((void)scenario_from_string(""), ContractViolation);
}

TEST(ScenarioIo, RejectsUnknownKeys) {
  EXPECT_THROW(
      (void)scenario_from_string("lgg-scenario v1\nwibble 3\nnetwork\n"),
      ContractViolation);
}

TEST(Generator, IsDeterministic) {
  ScenarioGenerator a(99);
  ScenarioGenerator b(99);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(to_string(a.next()), to_string(b.next())) << i;
  }
}

TEST(Generator, ScenariosRoundTripAndArmOraclesSoundly) {
  ScenarioGenerator gen(2026);
  for (int i = 0; i < 25; ++i) {
    const ScenarioConfig c = gen.next();
    const std::string text = to_string(c);
    EXPECT_EQ(to_string(scenario_from_string(text)), text) << c.label;
    // The always-sound oracles are armed everywhere.
    EXPECT_EQ(c.oracles & kOracleAlwaysSound, kOracleAlwaysSound);
    // Lemma-1 bounds only hold on clean truthful LGG instances at or below
    // the exact arrival rate; arming them elsewhere would be a false
    // positive factory.
    if ((c.oracles & (kOracleGrowth | kOracleState)) != 0) {
      EXPECT_TRUE(c.faults.empty()) << c.label;
      EXPECT_TRUE(c.churn_events.empty()) << c.label;
      EXPECT_EQ(c.protocol, "lgg") << c.label;
      EXPECT_EQ(c.declaration, core::DeclarationPolicy::kTruthful)
          << c.label;
      EXPECT_LT(c.churn_off, 0.0) << c.label;
      EXPECT_LE(c.arrival_scale, 1.0) << c.label;
      EXPECT_FALSE(c.matching) << c.label;
      EXPECT_TRUE(c.expect_stable) << c.label;
    }
    // Scripted lying must never be combined with strict declaration
    // checking outside planted-bug fixtures.
    EXPECT_FALSE(c.strict_declarations) << c.label;
    EXPECT_EQ(c.hang_ms, 0) << c.label;
    EXPECT_NO_THROW(c.faults.validate(c.network)) << c.label;
    EXPECT_NO_THROW(c.churn_events.validate(c.network)) << c.label;
    // The scripted-churn family only emits topology-churn clauses, and
    // every cut it opens is paired with a later restore.
    for (const core::FaultEvent& e : c.churn_events.events()) {
      EXPECT_TRUE(core::is_churn(e.kind)) << c.label;
    }
  }
}

}  // namespace
}  // namespace lgg::chaos
