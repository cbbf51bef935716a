// Checkpoint/resume must be invisible: a run interrupted at step t and
// restored into a fresh simulator continues bitwise-identically to the run
// that was never interrupted — per-step P_t, totals, queues, everything —
// for every protocol in the registry and for every stateful component.
#include <gtest/gtest.h>

#include <sstream>

#include "lgg.hpp"

namespace lgg {
namespace {

constexpr TimeStep kHorizon = 400;
constexpr TimeStep kBreak = 137;

core::SdNetwork test_network() {
  return core::scenarios::barbell_bottleneck(3, 1, 2);
}

/// A deliberately busy configuration: every RNG consumer in play at once.
std::unique_ptr<core::Simulator> build(const std::string& protocol,
                                       bool with_faults) {
  core::SimulatorOptions options;
  options.seed = 0xBEEF;
  auto sim = std::make_unique<core::Simulator>(
      test_network(), options, baselines::make_protocol(protocol));
  sim->set_arrival(std::make_unique<core::BernoulliArrival>(0.8));
  sim->set_loss(std::make_unique<core::BernoulliLoss>(0.05));
  core::FaultSchedule schedule;
  schedule.set_random_churn({0.05, 0.4, {}});
  if (with_faults) {
    schedule.set_random_crashes({0.02, 1, 8, core::CrashMode::kWipe});
  }
  sim->set_faults(std::make_unique<core::FaultInjector>(schedule, 0xFA));
  return sim;
}

void expect_same_totals(const core::CumulativeStats& a,
                        const core::CumulativeStats& b) {
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.proposed, b.proposed);
  EXPECT_EQ(a.suppressed, b.suppressed);
  EXPECT_EQ(a.conflicted, b.conflicted);
  EXPECT_EQ(a.sent, b.sent);
  EXPECT_EQ(a.lost, b.lost);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.extracted, b.extracted);
  EXPECT_EQ(a.crash_wiped, b.crash_wiped);
  EXPECT_EQ(a.steps, b.steps);
}

void expect_bitwise_resume(const std::string& protocol, bool with_faults) {
  SCOPED_TRACE(protocol + (with_faults ? "+faults" : ""));

  // Reference: uninterrupted run.
  auto full = build(protocol, with_faults);
  core::MetricsRecorder full_rec;
  full->run(kHorizon, &full_rec);

  // Interrupted twin: run to the break point, checkpoint, restore into a
  // freshly assembled simulator, finish the horizon.
  auto first = build(protocol, with_faults);
  first->run(kBreak);
  std::stringstream blob(std::ios::in | std::ios::out | std::ios::binary);
  first->save_checkpoint(blob);

  auto resumed = build(protocol, with_faults);
  resumed->restore_checkpoint(blob);
  ASSERT_EQ(resumed->now(), kBreak);
  core::MetricsRecorder tail_rec;
  resumed->run(kHorizon - kBreak, &tail_rec);

  // The tail trajectory matches the reference exactly, step for step.
  ASSERT_EQ(tail_rec.size(),
            static_cast<std::size_t>(kHorizon - kBreak));
  for (std::size_t i = 0; i < tail_rec.size(); ++i) {
    const std::size_t j = static_cast<std::size_t>(kBreak) + i;
    ASSERT_EQ(tail_rec.network_state()[i], full_rec.network_state()[j])
        << "step " << j;
    ASSERT_EQ(tail_rec.total_packets()[i], full_rec.total_packets()[j]);
    ASSERT_EQ(tail_rec.max_queue()[i], full_rec.max_queue()[j]);
  }
  const auto fq = full->queues();
  const auto rq = resumed->queues();
  ASSERT_EQ(fq.size(), rq.size());
  for (std::size_t v = 0; v < fq.size(); ++v) {
    EXPECT_EQ(fq[v], rq[v]) << "node " << v;
  }
  expect_same_totals(full->cumulative(), resumed->cumulative());
  EXPECT_TRUE(resumed->conserves_packets());
}

TEST(CheckpointResume, BitwiseIdenticalForEveryRegisteredProtocol) {
  for (const auto& name : baselines::protocol_names()) {
    expect_bitwise_resume(std::string(name), /*with_faults=*/false);
  }
}

TEST(CheckpointResume, BitwiseIdenticalWithFaultsActive) {
  for (const auto& name : baselines::protocol_names()) {
    expect_bitwise_resume(std::string(name), /*with_faults=*/true);
  }
}

TEST(CheckpointResume, StatefulComponentsRoundTrip) {
  // StaleLgg's declaration history, TokenBucket's per-node tokens, and
  // PeriodicLoss's counter are all cross-step state the blob must carry.
  const auto build_stateful = [] {
    core::SimulatorOptions options;
    options.seed = 0xCAFE;
    auto sim = std::make_unique<core::Simulator>(
        test_network(), options,
        std::make_unique<baselines::StaleLggProtocol>(3));
    sim->set_arrival(
        std::make_unique<core::TokenBucketArrival>(0.7, 10.0, 4));
    sim->set_loss(std::make_unique<core::PeriodicLoss>(5));
    return sim;
  };
  auto full = build_stateful();
  core::MetricsRecorder full_rec;
  full->run(kHorizon, &full_rec);

  auto first = build_stateful();
  first->run(kBreak);
  std::stringstream blob(std::ios::in | std::ios::out | std::ios::binary);
  first->save_checkpoint(blob);

  auto resumed = build_stateful();
  resumed->restore_checkpoint(blob);
  core::MetricsRecorder tail_rec;
  resumed->run(kHorizon - kBreak, &tail_rec);
  for (std::size_t i = 0; i < tail_rec.size(); ++i) {
    const std::size_t j = static_cast<std::size_t>(kBreak) + i;
    ASSERT_EQ(tail_rec.network_state()[i], full_rec.network_state()[j])
        << "step " << j;
  }
  expect_same_totals(full->cumulative(), resumed->cumulative());
}

TEST(CheckpointResume, TelemetryStreamIsByteIdenticalAcrossResume) {
  // A resumed run's JSONL telemetry must continue the interrupted stream
  // exactly: concatenating the pre-break and post-resume files yields the
  // uninterrupted run's bytes (sequence numbers, counters, cumulative
  // drift, and the flight ring all travel in the checkpoint).
  const auto make_telemetry = [] {
    obs::TelemetryOptions topts;
    topts.snapshot_every = 10;
    topts.flight_capacity = 32;
    return std::make_unique<obs::Telemetry>(topts);
  };

  for (const bool with_faults : {false, true}) {
    SCOPED_TRACE(with_faults ? "with faults" : "no faults");

    // Reference: uninterrupted, fully observed run.
    auto full_tel = make_telemetry();
    std::ostringstream full_stream;
    obs::OstreamJsonlSink full_sink(full_stream);
    full_tel->set_sink(&full_sink);
    auto full = build("lgg", with_faults);
    full->set_telemetry(full_tel.get());
    full->run(kHorizon);
    std::ostringstream full_flight;
    full_tel->dump_flight(full_flight);

    // Interrupted twin, telemetry attached on both sides of the break.
    auto first_tel = make_telemetry();
    std::ostringstream first_stream;
    obs::OstreamJsonlSink first_sink(first_stream);
    first_tel->set_sink(&first_sink);
    auto first = build("lgg", with_faults);
    first->set_telemetry(first_tel.get());
    first->run(kBreak);
    std::stringstream blob(std::ios::in | std::ios::out | std::ios::binary);
    first->save_checkpoint(blob);

    auto resumed_tel = make_telemetry();
    std::ostringstream resumed_stream;
    obs::OstreamJsonlSink resumed_sink(resumed_stream);
    resumed_tel->set_sink(&resumed_sink);
    auto resumed = build("lgg", with_faults);
    // Attach before restoring, as lgg_sim does: the checkpoint's
    // telemetry section then loads into the live session.
    resumed->set_telemetry(resumed_tel.get());
    resumed->restore_checkpoint(blob);
    EXPECT_EQ(resumed_tel->sequence(), first_tel->sequence());
    resumed->run(kHorizon - kBreak);

    EXPECT_EQ(first_stream.str() + resumed_stream.str(), full_stream.str());
    std::ostringstream resumed_flight;
    resumed_tel->dump_flight(resumed_flight);
    EXPECT_EQ(resumed_flight.str(), full_flight.str());
  }
}

TEST(CheckpointResume, HotspotWindowResumesMidWindow) {
  // The hotspot sketches are fed once per snapshot window, so a checkpoint
  // taken mid-window carries the pending per-node sums.  Break at step 37
  // of 10-step windows and end at 395, so both the break and the final
  // checkpoint sit mid-window; the resumed run, serial or sharded, must
  // write the uninterrupted run's stream and final checkpoint bytes.
  constexpr TimeStep kHotBreak = 37;
  constexpr TimeStep kHotHorizon = 395;
  const auto make_telemetry = [] {
    obs::TelemetryOptions topts;
    topts.snapshot_every = 10;
    topts.hotspot_k = 3;
    return std::make_unique<obs::Telemetry>(topts);
  };
  const auto final_checkpoint = [](const core::Simulator& sim) {
    std::ostringstream os(std::ios::binary);
    sim.save_checkpoint(os);
    return os.str();
  };

  auto full_tel = make_telemetry();
  std::ostringstream full_stream;
  obs::OstreamJsonlSink full_sink(full_stream);
  full_tel->set_sink(&full_sink);
  auto full = build("lgg", true);
  full->set_telemetry(full_tel.get());
  full->run(kHotHorizon);
  const std::string full_ckpt = final_checkpoint(*full);

  auto first_tel = make_telemetry();
  std::ostringstream first_stream;
  obs::OstreamJsonlSink first_sink(first_stream);
  first_tel->set_sink(&first_sink);
  auto first = build("lgg", true);
  first->set_telemetry(first_tel.get());
  first->run(kHotBreak);
  const std::string blob = final_checkpoint(*first);

  for (const bool sharded : {false, true}) {
    SCOPED_TRACE(sharded ? "enable_sharding(3, 3)" : "serial");
    auto resumed_tel = make_telemetry();
    std::ostringstream resumed_stream;
    obs::OstreamJsonlSink resumed_sink(resumed_stream);
    resumed_tel->set_sink(&resumed_sink);
    auto resumed = build("lgg", true);
    if (sharded) resumed->enable_sharding(3, 3);
    resumed->set_telemetry(resumed_tel.get());
    std::istringstream is(blob, std::ios::binary);
    resumed->restore_checkpoint(is);
    resumed->run(kHotHorizon - kHotBreak);

    EXPECT_EQ(first_stream.str() + resumed_stream.str(), full_stream.str());
    EXPECT_EQ(final_checkpoint(*resumed), full_ckpt);
    EXPECT_EQ(resumed_tel->hotspots()->summary_table(),
              full_tel->hotspots()->summary_table());
  }
  EXPECT_NE(full_stream.str().find("\"type\":\"hotspots\""),
            std::string::npos);
}

TEST(CheckpointResume, TelemetryConfigurationMismatchIsRejected) {
  // A checkpoint saved with one telemetry shape cannot restore into a
  // session with a different flight-recorder capacity.
  obs::TelemetryOptions topts;
  topts.flight_capacity = 32;
  obs::Telemetry saved_tel(topts);
  auto sim = build("lgg", false);
  sim->set_telemetry(&saved_tel);
  sim->run(50);
  std::stringstream blob(std::ios::in | std::ios::out | std::ios::binary);
  sim->save_checkpoint(blob);

  obs::TelemetryOptions other_opts;
  other_opts.flight_capacity = 8;
  obs::Telemetry other_tel(other_opts);
  auto victim = build("lgg", false);
  victim->set_telemetry(&other_tel);
  EXPECT_THROW(victim->restore_checkpoint(blob), std::runtime_error);
}

TEST(CheckpointResume, CorruptionIsDetected) {
  auto sim = build("lgg", false);
  sim->run(50);
  std::ostringstream os(std::ios::binary);
  sim->save_checkpoint(os);
  std::string bytes = os.str();

  {  // Flip one payload byte: CRC must catch it.
    std::string corrupt = bytes;
    corrupt[corrupt.size() - 3] ^= 0x40;
    std::istringstream is(corrupt, std::ios::binary);
    auto victim = build("lgg", false);
    EXPECT_THROW(victim->restore_checkpoint(is), core::CheckpointError);
  }
  {  // Truncate: header size check must catch it.
    std::istringstream is(bytes.substr(0, bytes.size() / 2),
                          std::ios::binary);
    auto victim = build("lgg", false);
    EXPECT_THROW(victim->restore_checkpoint(is), core::CheckpointError);
  }
  {  // Not a checkpoint at all.
    std::istringstream is("definitely not a checkpoint",
                          std::ios::binary);
    auto victim = build("lgg", false);
    EXPECT_THROW(victim->restore_checkpoint(is), core::CheckpointError);
  }
  {  // Bad magic with plausible length.
    std::string corrupt = bytes;
    corrupt[0] = 'X';
    std::istringstream is(corrupt, std::ios::binary);
    auto victim = build("lgg", false);
    EXPECT_THROW(victim->restore_checkpoint(is), core::CheckpointError);
  }
}

TEST(CheckpointResume, ConfigurationMismatchIsDetected) {
  auto sim = build("lgg", false);
  sim->run(20);
  std::ostringstream os(std::ios::binary);
  sim->save_checkpoint(os);
  const std::string bytes = os.str();

  {  // Different network shape.
    core::Simulator other(core::scenarios::single_path(3, 1, 1));
    std::istringstream is(bytes, std::ios::binary);
    EXPECT_THROW(other.restore_checkpoint(is), core::CheckpointError);
  }
  // build() always installs an injector (random edge churn); a bare
  // simulator on the same network has none.
  {  // Checkpoint without faults, simulator with faults installed.
    core::Simulator bare(test_network());
    bare.run(20);
    std::ostringstream bos(std::ios::binary);
    bare.save_checkpoint(bos);
    auto other = build("lgg", true);
    std::istringstream is(bos.str(), std::ios::binary);
    EXPECT_THROW(other->restore_checkpoint(is), core::CheckpointError);
  }
  {  // Checkpoint with faults, simulator without.
    core::Simulator other(test_network());
    std::istringstream is(bytes, std::ios::binary);
    EXPECT_THROW(other.restore_checkpoint(is), core::CheckpointError);
  }
}

TEST(CheckpointResume, FileHelpersRoundTrip) {
  const std::string path = ::testing::TempDir() + "/lgg_ckpt_test.bin";
  auto sim = build("backpressure", true);
  sim->run(100);
  core::write_checkpoint_file(*sim, path);

  auto resumed = build("backpressure", true);
  core::restore_checkpoint_file(*resumed, path);
  EXPECT_EQ(resumed->now(), 100);
  sim->run(50);
  resumed->run(50);
  const auto a = sim->queues();
  const auto b = resumed->queues();
  for (std::size_t v = 0; v < a.size(); ++v) EXPECT_EQ(a[v], b[v]);

  EXPECT_THROW(
      core::restore_checkpoint_file(*resumed, path + ".does-not-exist"),
      core::CheckpointError);
}

TEST(CheckpointResume, MixedRandomAndScheduledChurnResumesMidChurn) {
  // Random churn and scheduled edge_remove/edge_add on the same edges, a
  // node_leave/node_join and armed telemetry (edge flight events).  The
  // break falls while edge 2 is scheduled out and random churn holds
  // edges down, so the checkpoint's mask slot and the faults blob both
  // carry live bits; the resumed run must write the uninterrupted run's
  // stream, flight ring and final checkpoint bytes.
  constexpr TimeStep kChurnBreak = 45;
  const auto make = [] {
    core::SimulatorOptions options;
    options.seed = 0xC4C4;
    auto sim = std::make_unique<core::Simulator>(test_network(), options);
    sim->set_arrival(std::make_unique<core::BernoulliArrival>(0.8));
    sim->set_faults(std::make_unique<core::FaultInjector>(
        core::parse_fault_spec(
            "random_churn:off=0.1,on=0.3,protect=0;"
            "edge_remove:edge=2,at=30;edge_add:edge=2,at=70;"
            "edge_remove:edge=3,at=44;edge_add:edge=3,at=46;"
            "node_leave:node=1,at=40;node_join:node=1,at=90"),
        0xFA));
    return sim;
  };
  const auto make_telemetry = [] {
    obs::TelemetryOptions topts;
    topts.snapshot_every = 10;
    topts.flight_capacity = 64;
    return std::make_unique<obs::Telemetry>(topts);
  };
  const auto checkpoint = [](const core::Simulator& sim) {
    std::ostringstream os(std::ios::binary);
    sim.save_checkpoint(os);
    return os.str();
  };

  auto full_tel = make_telemetry();
  std::ostringstream full_stream;
  obs::OstreamJsonlSink full_sink(full_stream);
  full_tel->set_sink(&full_sink);
  auto full = make();
  full->set_telemetry(full_tel.get());
  full->run(kHorizon);
  std::ostringstream full_flight;
  full_tel->dump_flight(full_flight);

  auto first_tel = make_telemetry();
  std::ostringstream first_stream;
  obs::OstreamJsonlSink first_sink(first_stream);
  first_tel->set_sink(&first_sink);
  auto first = make();
  first->set_telemetry(first_tel.get());
  first->run(kChurnBreak);
  ASSERT_TRUE(first->faults()->edge_removed(2));
  ASSERT_FALSE(first->edge_mask().all_active());
  bool random_off = false;
  for (EdgeId e = 0; e < first->edge_mask().size(); ++e) {
    random_off = random_off || first->faults()->edge_random_off(e);
  }
  ASSERT_TRUE(random_off);
  const std::string blob = checkpoint(*first);

  auto resumed_tel = make_telemetry();
  std::ostringstream resumed_stream;
  obs::OstreamJsonlSink resumed_sink(resumed_stream);
  resumed_tel->set_sink(&resumed_sink);
  auto resumed = make();
  resumed->set_telemetry(resumed_tel.get());
  std::istringstream is(blob, std::ios::binary);
  resumed->restore_checkpoint(is);
  for (EdgeId e = 0; e < first->edge_mask().size(); ++e) {
    ASSERT_EQ(resumed->edge_mask().active(e), first->edge_mask().active(e));
  }
  resumed->run(kHorizon - kChurnBreak);

  EXPECT_EQ(first_stream.str() + resumed_stream.str(), full_stream.str());
  std::ostringstream resumed_flight;
  resumed_tel->dump_flight(resumed_flight);
  EXPECT_EQ(resumed_flight.str(), full_flight.str());
  EXPECT_EQ(checkpoint(*resumed), checkpoint(*full));
}

}  // namespace
}  // namespace lgg
