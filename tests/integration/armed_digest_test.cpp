// Pinned digests of armed telemetry output.  The Determinism.PinnedDigest*
// tests lock the trajectory (queues, Σq², stats); these lock what an
// armed Telemetry session writes on top of it: the JSONL stream (snapshot
// lines with per-node drift, "hotspots" lines with both Space-Saving
// sketches and the occupancy histogram), the flight-recorder dump, and
// the checkpoint bytes that carry the sketch and ring state.
//
// Each fixture runs twice, once with a flight ring smaller than a step's
// transmissions (every batch overwrites the whole ring) and once with a
// ring larger than a step's transmissions (batches wrap across steps).
// The flight dump and the checkpoint are taken every kCaptureEvery
// steps, never on a snapshot step, so the last events in the ring are
// the step's own transmissions rather than a snapshot event.  The values
// were recorded before the telemetry hot path lost its sorts, hash maps
// and libm calls; re-record only for a deliberate change to the output
// format.  The telemetry and checkpoint digests were re-recorded once,
// when the sketches moved to one update per node per snapshot window (the
// eviction history, hence the hotspots entries, changed; the checkpoint
// gained the pending window); the flight digests did not move.  The
// three ShardedChurn* digests were re-recorded once more when random edge
// churn moved into the fault injector: the fixture gained a faults
// section in its checkpoints, registered faults.* counters in its JSONL
// stream, and an edge_down/edge_up flight event per random flip.
//
// The WindowOfOneStep* digests run the same fixtures with a snapshot every
// step.  They were recorded while the sketches were still updated once
// per touched node per step, and they must not move: a one-step window is
// that per-step feed.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>

#include "lgg.hpp"

namespace lgg::core {
namespace {

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct ArmedDigests {
  std::uint64_t telemetry = 0;
  std::uint64_t flight = 0;
  std::uint64_t checkpoint = 0;
};

constexpr int kSteps = 305;
constexpr int kCaptureEvery = 61;  // coprime to the snapshot cadence, 10
constexpr std::size_t kSmallRing = 3;
constexpr std::size_t kLargeRing = 1024;

/// Runs `sim` armed with hotspot_k = k and a flight ring of `capacity`,
/// and digests the three armed outputs: the whole JSONL stream, and the
/// flight dumps and checkpoints captured along the run.
ArmedDigests run_armed(Simulator& sim, std::size_t k, std::size_t capacity,
                       TimeStep snapshot_every = 10) {
  obs::TelemetryOptions topts;
  topts.snapshot_every = snapshot_every;
  topts.flight_capacity = capacity;
  topts.hotspot_k = k;
  obs::Telemetry telemetry(topts);
  std::ostringstream stream;
  obs::OstreamJsonlSink sink(stream);
  telemetry.set_sink(&sink);
  sim.set_telemetry(&telemetry);
  PacketCount max_proposed = 0;
  PacketCount min_proposed = -1;
  std::ostringstream flight;
  std::ostringstream ckpt(std::ios::binary);
  for (int t = 0; t < kSteps; ++t) {
    const StepStats s = sim.step();
    if (s.proposed > max_proposed) max_proposed = s.proposed;
    if (t >= kSteps / 2 && (min_proposed < 0 || s.proposed < min_proposed)) {
      min_proposed = s.proposed;
    }
    if ((t + 1) % kCaptureEvery == 0) {
      telemetry.dump_flight(flight);
      sim.save_checkpoint(ckpt);
    }
  }
  EXPECT_TRUE(sim.conserves_packets());
  // The fixtures must straddle the ring size the way their names say.
  if (capacity == kSmallRing) {
    EXPECT_GT(min_proposed, static_cast<PacketCount>(capacity));
  } else {
    EXPECT_LT(max_proposed, static_cast<PacketCount>(capacity));
    EXPECT_GT(telemetry.flight()->recorded(), capacity);
  }
  sim.set_telemetry(nullptr);
  return {fnv1a(stream.str()), fnv1a(flight.str()), fnv1a(ckpt.str())};
}

void expect_digests(const ArmedDigests& got, const ArmedDigests& want) {
  EXPECT_EQ(got.telemetry, want.telemetry);
  EXPECT_EQ(got.flight, want.flight);
  EXPECT_EQ(got.checkpoint, want.checkpoint);
}

/// K = 1: every sketch update is a hit or an eviction of the only slot.
std::unique_ptr<Simulator> single_slot_fixture() {
  SimulatorOptions options;
  options.seed = 0xA7ED0001;
  auto sim = std::make_unique<Simulator>(
      scenarios::random_unsaturated(48, 160, 3, 2, 11), options);
  sim->set_arrival(std::make_unique<BernoulliArrival>(0.8));
  sim->set_loss(std::make_unique<BernoulliLoss>(0.1));
  return sim;
}

/// K = 3, heavy loss, random tie-break.
std::unique_ptr<Simulator> lossy_shuffle_fixture() {
  SimulatorOptions options;
  options.seed = 0xA7ED0002;
  auto sim = std::make_unique<Simulator>(
      scenarios::random_unsaturated(48, 160, 3, 2, 11), options,
      std::make_unique<LggProtocol>(TieBreak::kRandomShuffle));
  sim->set_arrival(std::make_unique<BernoulliArrival>(0.9));
  sim->set_loss(std::make_unique<BernoulliLoss>(0.3));
  return sim;
}

/// K = 8, edge churn, shard engine with three shards.
std::unique_ptr<Simulator> sharded_churn_fixture() {
  SimulatorOptions options;
  options.seed = 0xA7ED0003;
  auto sim = std::make_unique<Simulator>(
      scenarios::random_unsaturated(60, 220, 3, 3, 23), options);
  sim->set_arrival(std::make_unique<BernoulliArrival>(0.85));
  sim->set_loss(std::make_unique<BernoulliLoss>(0.05));
  FaultSchedule churn;
  churn.set_random_churn({0.04, 0.3, {}});
  sim->set_faults(std::make_unique<FaultInjector>(std::move(churn)));
  sim->enable_sharding(3, 3);
  return sim;
}

/// K = 64 on 24 nodes: the sketches never fill, so nothing is evicted.
constexpr std::size_t kOversizedK = 64;
std::unique_ptr<Simulator> oversized_k_fixture() {
  SimulatorOptions options;
  options.seed = 0xA7ED0004;
  auto sim = std::make_unique<Simulator>(
      scenarios::random_unsaturated(24, 80, 2, 2, 7), options);
  sim->set_arrival(std::make_unique<BernoulliArrival>(0.7));
  sim->set_loss(std::make_unique<BernoulliLoss>(0.02));
  return sim;
}

TEST(ArmedDigest, SingleSlotSmallRing) {
  auto sim = single_slot_fixture();
  expect_digests(run_armed(*sim, 1, kSmallRing),
                 {0xdc9ad025a1d1acd0ULL, 0xb8a4681ec6fd04baULL,
                  0x782b5c8e995df57fULL});
}

TEST(ArmedDigest, SingleSlotLargeRing) {
  auto sim = single_slot_fixture();
  expect_digests(run_armed(*sim, 1, kLargeRing),
                 {0x053b01a200673380ULL, 0x91b82849b2868b52ULL,
                  0xfb019e73eb9de1fcULL});
}

TEST(ArmedDigest, LossyShuffleSmallRing) {
  auto sim = lossy_shuffle_fixture();
  expect_digests(run_armed(*sim, 3, kSmallRing),
                 {0xb2ffadcbd3bd532fULL, 0x1c1515c7f8dcfc43ULL,
                  0x6df96cfd090c4755ULL});
}

TEST(ArmedDigest, LossyShuffleLargeRing) {
  auto sim = lossy_shuffle_fixture();
  expect_digests(run_armed(*sim, 3, kLargeRing),
                 {0x4a1c720fd2566f1fULL, 0xe3f3967bfe8fa0d7ULL,
                  0xf0e6070514b509cbULL});
}

TEST(ArmedDigest, ShardedChurnSmallRing) {
  auto sim = sharded_churn_fixture();
  expect_digests(run_armed(*sim, 8, kSmallRing),
                 {0x966100eb25e3a107ULL, 0x759c3201f99705baULL,
                  0xf806ba6cd931e418ULL});
}

TEST(ArmedDigest, ShardedChurnLargeRing) {
  auto sim = sharded_churn_fixture();
  expect_digests(run_armed(*sim, 8, kLargeRing),
                 {0x490f967a281e2f4bULL, 0x57ade6625305a85cULL,
                  0x030b9ba418226f62ULL});
}

TEST(ArmedDigest, OversizedKSmallRing) {
  auto sim = oversized_k_fixture();
  expect_digests(run_armed(*sim, kOversizedK, kSmallRing),
                 {0x12c2c92d1d4017e7ULL, 0x8a803cf7a8dec3adULL,
                  0x9400dedfc45eaf97ULL});
}

TEST(ArmedDigest, OversizedKLargeRing) {
  auto sim = oversized_k_fixture();
  expect_digests(run_armed(*sim, kOversizedK, kLargeRing),
                 {0x3a7c54ed6e7f6663ULL, 0x82df223f07f1883cULL,
                  0x90e0130a6b509a03ULL});
}

// A one-step window: every step is a snapshot, so the sketches see one
// update per touched node per step, in ascending id.  These digests pin
// that per-step stream; the checkpoint digest is left out because it also
// carries the checkpoint format.
void expect_window_of_one_step(Simulator& sim, std::size_t k,
                               std::uint64_t telemetry, std::uint64_t flight) {
  const ArmedDigests got = run_armed(sim, k, kLargeRing, 1);
  EXPECT_EQ(got.telemetry, telemetry);
  EXPECT_EQ(got.flight, flight);
}

TEST(ArmedDigest, WindowOfOneStepSingleSlot) {
  auto sim = single_slot_fixture();
  expect_window_of_one_step(*sim, 1,
                            0x570bb44203067ac5ULL, 0x05a4b0ffd8f2aff7ULL);
}

TEST(ArmedDigest, WindowOfOneStepLossyShuffle) {
  auto sim = lossy_shuffle_fixture();
  expect_window_of_one_step(*sim, 3,
                            0x7dc423d7f15a04d5ULL, 0xe8d9ab0934070220ULL);
}

TEST(ArmedDigest, WindowOfOneStepShardedChurn) {
  auto sim = sharded_churn_fixture();
  expect_window_of_one_step(*sim, 8,
                            0x6c887d528b4a6224ULL, 0xc46f91573db0f45dULL);
}

TEST(ArmedDigest, WindowOfOneStepOversizedK) {
  auto sim = oversized_k_fixture();
  expect_window_of_one_step(*sim, kOversizedK,
                            0xec90f9f859220ed4ULL, 0x0f81fb23d1cfb02bULL);
}

}  // namespace
}  // namespace lgg::core
