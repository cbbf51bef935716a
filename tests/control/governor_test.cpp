// The admission governor's two-sided guarantee:
//
//  * feasible-never-throttled — on certified-unsaturated instances a
//    governed run sheds zero packets and its trajectory is bitwise
//    identical to an ungoverned one (admit() is an exact identity at
//    multiplier 1.0);
//  * overload containment — on the planted infeasible chain the governor
//    engages and P_t stays under its engage-anchored bound for the whole
//    horizon, while the ungoverned twin diverges quadratically.
//
// Plus the operational machinery: AIMD recovery to exactly 1.0 after a
// fault surge, the brownout ladder's priority ordering, and checkpoint v3
// round-trips mid-brownout.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "control/brownout.hpp"
#include "control/governor.hpp"
#include "core/checkpoint.hpp"
#include "core/faults.hpp"
#include "core/metrics.hpp"
#include "core/simulator.hpp"
#include "core/trace_io.hpp"

namespace lgg {
namespace {

constexpr const char* kDemoRelay =
    "nodes 4\n"
    "edge 0 1\nedge 0 1\nedge 0 1\n"
    "edge 1 2\nedge 1 2\nedge 1 2\n"
    "edge 2 3\nedge 2 3\nedge 2 3\n"
    "role 0 1 0 0\nrole 1 1 1 2\nrole 3 0 3 0\n";

constexpr const char* kInfeasibleChain =
    "nodes 4\n"
    "edge 0 1\nedge 1 2\nedge 2 3\n"
    "role 0 3 0 0\nrole 3 0 3 0\n";

std::unique_ptr<core::Simulator> make_sim(const char* text,
                                          std::uint64_t seed = 42) {
  core::SimulatorOptions options;
  options.seed = seed;
  return std::make_unique<core::Simulator>(core::network_from_string(text),
                                           options);
}

TEST(AdmissionGovernor, ZeroShedAndBitwiseIdentityOnUnsaturated) {
  auto plain = make_sim(kDemoRelay);
  core::MetricsRecorder plain_rec;
  plain->run(2000, &plain_rec);

  auto governed = make_sim(kDemoRelay);
  control::AdmissionGovernor governor(governed->network());
  governed->set_admission(&governor);
  core::MetricsRecorder gov_rec;
  governed->run(2000, &gov_rec);

  EXPECT_EQ(governor.total_shed(), 0);
  EXPECT_EQ(governor.multiplier(), 1.0);
  EXPECT_EQ(governed->cumulative().shed, 0);
  ASSERT_EQ(plain_rec.size(), gov_rec.size());
  for (std::size_t i = 0; i < plain_rec.size(); ++i) {
    ASSERT_EQ(plain_rec.network_state()[i], gov_rec.network_state()[i])
        << "trajectories differ at step " << i;
  }
  const auto pq = plain->queues();
  const auto gq = governed->queues();
  for (std::size_t v = 0; v < pq.size(); ++v) EXPECT_EQ(pq[v], gq[v]);
}

TEST(AdmissionGovernor, KeepsInfeasibleInstanceBounded) {
  auto governed = make_sim(kInfeasibleChain);
  control::AdmissionGovernor governor(governed->network());
  governed->set_admission(&governor);
  governed->run(20000);

  EXPECT_GT(governor.total_shed(), 0);
  ASSERT_GT(governor.overload_bound(), 0.0) << "governor never engaged";
  EXPECT_LE(governed->network_state(), governor.overload_bound());
  EXPECT_TRUE(governed->conserves_packets());

  // The ungoverned twin diverges: same horizon, orders of magnitude more
  // potential (the source queue alone grows 2 packets per step).
  auto plain = make_sim(kInfeasibleChain);
  plain->run(20000);
  EXPECT_GT(plain->network_state(), 100.0 * governed->network_state());
}

TEST(AdmissionGovernor, RecoversToFullAdmissionAfterSurge) {
  // A transient fault surge overwhelms the relay: the sentinel trips, the
  // governor sheds, and once the surge passes and the queues drain, AIMD
  // probing walks the multiplier back to exactly 1.0 (not merely near it).
  auto sim = make_sim(kDemoRelay);
  sim->set_faults(std::make_unique<core::FaultInjector>(
      core::parse_fault_spec("surge:node=0,at=100,for=50,extra=20"),
      0xFA17));
  control::AdmissionGovernor governor(sim->network());
  sim->set_admission(&governor);
  sim->run(4000);

  EXPECT_GT(governor.total_shed(), 0) << "surge never tripped the governor";
  EXPECT_EQ(governor.multiplier(), 1.0);
  EXPECT_EQ(governor.mode(),
            static_cast<int>(control::SaturationMode::kUnsaturated));
  // Shed packets were never injected, so the conservation audit still
  // balances: injected - extracted - lost - crash_wiped == stored.
  EXPECT_TRUE(sim->conserves_packets());
  const auto& totals = sim->cumulative();
  EXPECT_EQ(totals.shed, governor.total_shed());
}

TEST(BrownoutPolicy, OrderedLadderDefersLowestPriorityFirst) {
  const control::BrownoutPolicy policy({1.0 / 16.0, /*ordered=*/true});
  const std::vector<Cap> rates = {2, 2, 2};
  std::vector<double> out(3);
  policy.apply(rates, 0.5, out);
  // Source 2 (lowest priority) is floored first, source 1 takes the
  // remainder, source 0 (highest priority) is untouched.
  EXPECT_EQ(out[0], 1.0);
  EXPECT_GT(out[1], out[2]);
  EXPECT_EQ(out[2], 1.0 / 16.0);
  double admitted = 0.0;
  for (std::size_t i = 0; i < 3; ++i) {
    admitted += out[i] * static_cast<double>(rates[i]);
  }
  EXPECT_DOUBLE_EQ(admitted, 0.5 * 6.0);

  // Below the per-source floor the ladder cannot realize g: uniform shed.
  policy.apply(rates, 1.0 / 32.0, out);
  for (const double m : out) EXPECT_DOUBLE_EQ(m, 1.0 / 32.0);

  // Unordered policy sheds uniformly at any g.
  const control::BrownoutPolicy uniform({1.0 / 16.0, /*ordered=*/false});
  uniform.apply(rates, 0.5, out);
  for (const double m : out) EXPECT_DOUBLE_EQ(m, 0.5);
}

TEST(AdmissionGovernor, CheckpointRoundTripsMidBrownout) {
  const auto build = [] {
    auto sim = make_sim(kInfeasibleChain);
    control::GovernorOptions options;
    options.brownout = true;
    auto governor = std::make_unique<control::AdmissionGovernor>(
        sim->network(), options);
    sim->set_admission(governor.get());
    return std::pair{std::move(sim), std::move(governor)};
  };

  auto [full, full_gov] = build();
  core::MetricsRecorder full_rec;
  full->run(4000, &full_rec);

  auto [first, first_gov] = build();
  first->run(3000);
  ASSERT_GT(first_gov->total_shed(), 0) << "break point is not mid-shed";
  std::stringstream blob(std::ios::in | std::ios::out | std::ios::binary);
  first->save_checkpoint(blob);

  auto [resumed, resumed_gov] = build();
  resumed->restore_checkpoint(blob);
  ASSERT_EQ(resumed->now(), 3000);
  EXPECT_EQ(resumed_gov->multiplier(), first_gov->multiplier());
  EXPECT_EQ(resumed_gov->total_shed(), first_gov->total_shed());
  core::MetricsRecorder tail_rec;
  resumed->run(1000, &tail_rec);

  for (std::size_t i = 0; i < tail_rec.size(); ++i) {
    const std::size_t j = 3000 + i;
    ASSERT_EQ(tail_rec.network_state()[i], full_rec.network_state()[j])
        << "resumed trajectory differs at step " << j;
  }
  EXPECT_EQ(resumed_gov->total_shed(), full_gov->total_shed());
  EXPECT_EQ(resumed->cumulative().shed, full->cumulative().shed);

  // save -> restore -> save is bitwise identical (the chaos checkpoint
  // oracle's fixed point, now covering governor state too).
  auto [twin, twin_gov] = build();
  std::istringstream replay(blob.str(), std::ios::binary);
  twin->restore_checkpoint(replay);
  std::ostringstream resaved(std::ios::binary);
  twin->save_checkpoint(resaved);
  EXPECT_EQ(resaved.str(), blob.str());
}

TEST(AdmissionGovernor, CheckpointPresenceMismatchIsStrict) {
  // Governed checkpoint into an ungoverned simulator: rejected.
  auto governed = make_sim(kInfeasibleChain);
  control::AdmissionGovernor governor(governed->network());
  governed->set_admission(&governor);
  governed->run(500);
  std::ostringstream with;
  governed->save_checkpoint(with);
  {
    auto victim = make_sim(kInfeasibleChain);
    std::istringstream is(with.str(), std::ios::binary);
    EXPECT_THROW(victim->restore_checkpoint(is), core::CheckpointError);
  }
  // Ungoverned checkpoint into a governed simulator: also rejected.
  auto plain = make_sim(kInfeasibleChain);
  plain->run(500);
  std::ostringstream without;
  plain->save_checkpoint(without);
  {
    auto victim = make_sim(kInfeasibleChain);
    control::AdmissionGovernor other(victim->network());
    victim->set_admission(&other);
    std::istringstream is(without.str(), std::ios::binary);
    EXPECT_THROW(victim->restore_checkpoint(is), core::CheckpointError);
  }
}

TEST(AdmissionGovernor, ReservedCertificateByteMustBeZero) {
  // The byte after last_topology_version_ once flagged a stale certificate
  // (offset 8+8+1+1+8+8); it is written as 0 and a set one is refused.
  constexpr std::size_t kReservedOffset = 34;
  auto sim = make_sim(kInfeasibleChain);
  control::AdmissionGovernor governor(sim->network());
  sim->set_admission(&governor);
  sim->run(200);
  std::ostringstream os;
  governor.save_state(os);
  std::string bytes = os.str();
  ASSERT_GT(bytes.size(), kReservedOffset);
  EXPECT_EQ(bytes[kReservedOffset], '\0');
  {
    control::AdmissionGovernor twin(sim->network());
    std::istringstream is(bytes, std::ios::binary);
    EXPECT_NO_THROW(twin.load_state(is));
  }
  bytes[kReservedOffset] = '\1';
  control::AdmissionGovernor twin(sim->network());
  std::istringstream is(bytes, std::ios::binary);
  EXPECT_ANY_THROW(twin.load_state(is));
}

TEST(AdmissionGovernor, FairnessAccountingCoversEverySource) {
  auto sim = make_sim(kInfeasibleChain);
  control::AdmissionGovernor governor(sim->network());
  sim->set_admission(&governor);
  sim->run(5000);

  const auto offered = governor.offered_per_source();
  const auto shed = governor.shed_per_source();
  ASSERT_EQ(offered.size(), sim->network().sources().size());
  ASSERT_EQ(shed.size(), offered.size());
  PacketCount total = 0;
  for (std::size_t i = 0; i < shed.size(); ++i) {
    EXPECT_GE(shed[i], 0);
    EXPECT_LE(shed[i], offered[i]);
    total += shed[i];
  }
  EXPECT_EQ(total, governor.total_shed());
}

}  // namespace
}  // namespace lgg
