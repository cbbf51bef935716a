// Checkpoint corruption fuzz: every single-byte flip and every truncation
// of a valid checkpoint must be rejected cleanly — CheckpointError, never
// UB — which the CI sanitizer job (ASan + UBSan) turns into a hard proof
// for this corpus.  A flip the parser provably cannot distinguish from
// the original (none today: the payload CRC covers every byte) would have
// to restore to the identical state to pass.
//
// The chain manifest parser gets the same treatment: any flipped byte
// yields nullopt (the trailing CRC covers everything before it), and no
// exception may escape read_manifest.
//
// A CRC only catches accidents.  The hotspot state is also checked for
// meaning: a checkpoint with a valid CRC whose sketch monitors one node
// twice, or a node the network does not have, is rejected too, and so is
// a pending snapshot window with a node the network does not have, nodes
// out of ascending order, or more entries than nodes.  So is fault-injector
// state naming a node or edge outside the network, or a negative parked
// spec, and a stale-LGG history deeper than its delay allows or with a
// snapshot whose length is not the node count.  So is an edge the mask
// slot holds down by random churn when none is installed, and a non-empty
// dynamics component.  A rejected restore leaves the simulator exactly as
// it was.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "lgg.hpp"

namespace lgg {
namespace {

std::unique_ptr<core::Simulator> small_sim(
    std::unique_ptr<core::RoutingProtocol> protocol =
        baselines::make_protocol("lgg")) {
  core::SimulatorOptions options;
  options.seed = 0xF00D;
  auto sim = std::make_unique<core::Simulator>(
      core::scenarios::barbell_bottleneck(2, 1, 2), options,
      std::move(protocol));
  sim->set_arrival(std::make_unique<core::BernoulliArrival>(0.7));
  sim->set_loss(std::make_unique<core::BernoulliLoss>(0.05));
  return sim;
}

std::string checkpoint_bytes() {
  auto sim = small_sim();
  sim->run(40);
  std::ostringstream os(std::ios::binary);
  sim->save_checkpoint(os);
  return os.str();
}

TEST(CheckpointFuzz, EverySingleByteFlipIsRejectedOrInvisible) {
  const std::string bytes = checkpoint_bytes();
  ASSERT_GT(bytes.size(), 0u);
  for (std::size_t offset = 0; offset < bytes.size(); ++offset) {
    std::string corrupt = bytes;
    corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0x5A);
    std::istringstream is(corrupt, std::ios::binary);
    auto victim = small_sim();
    try {
      victim->restore_checkpoint(is);
      // No rejection: the flip must have been semantically invisible —
      // re-serializing must reproduce the original bytes exactly.
      std::ostringstream again(std::ios::binary);
      victim->save_checkpoint(again);
      EXPECT_EQ(again.str(), bytes) << "offset " << offset;
    } catch (const core::CheckpointError&) {
      // Clean rejection: the expected outcome.  Anything else thrown (or
      // any sanitizer report) fails the test.
    }
  }
}

TEST(CheckpointFuzz, EveryTruncationIsRejected) {
  const std::string bytes = checkpoint_bytes();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::istringstream is(bytes.substr(0, len), std::ios::binary);
    auto victim = small_sim();
    EXPECT_THROW(victim->restore_checkpoint(is), core::CheckpointError)
        << "truncated to " << len << " of " << bytes.size() << " bytes";
  }
}

/// small_sim() with hotspot telemetry attached (the simulator is declared
/// second so it is destroyed first).  The sketches are fed once per
/// snapshot window of kWindow steps.
constexpr TimeStep kWindow = 10;
struct HotspotSim {
  std::unique_ptr<obs::Telemetry> telemetry;
  std::unique_ptr<core::Simulator> sim;
};

HotspotSim with_hotspots(std::unique_ptr<core::Simulator> sim) {
  obs::TelemetryOptions topts;
  topts.snapshot_every = kWindow;
  topts.hotspot_k = 4;
  HotspotSim h{std::make_unique<obs::Telemetry>(topts), std::move(sim)};
  h.sim->set_telemetry(h.telemetry.get());
  return h;
}

HotspotSim hotspot_sim() { return with_hotspots(small_sim()); }

std::string telemetry_bytes(const obs::Telemetry& telemetry) {
  std::ostringstream os(std::ios::binary);
  telemetry.save_state(os);
  return os.str();
}

/// Overwrites the `width`-byte little-endian integer at `at` and re-seals
/// the payload CRC.
std::string with_uint(std::string bytes, std::size_t at, std::uint64_t value,
                      int width) {
  constexpr std::size_t kCrcAt = sizeof(core::kCheckpointMagic) + 4 + 8;
  constexpr std::size_t kPayloadAt = kCrcAt + 4;
  for (int i = 0; i < width; ++i) {
    bytes[at + i] = static_cast<char>(value >> (8 * i));
  }
  const std::uint32_t crc = core::crc32(bytes.data() + kPayloadAt,
                                        bytes.size() - kPayloadAt);
  for (int i = 0; i < 4; ++i) {
    bytes[kCrcAt + i] = static_cast<char>(crc >> (8 * i));
  }
  return bytes;
}

std::string with_u64(std::string bytes, std::size_t at, std::uint64_t value) {
  return with_uint(std::move(bytes), at, value, 8);
}

std::uint64_t read_u64(const std::string& bytes, std::size_t at) {
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |=
        static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[at + i]))
        << (8 * i);
  }
  return value;
}

/// The payload ends with the queue sketch's 24-byte (key, weight, error)
/// entries, then the admission flag byte; this is the offset of the key
/// of the `from_end`-th last entry.
std::size_t queue_key_at(const std::string& bytes, std::size_t from_end) {
  return bytes.size() - 1 - 24 * from_end;
}

/// A hotspot checkpoint taken mid-window, with the offset of its pending
/// window: a u64 entry count, then (node, drift sum, queue sum) u64
/// triples.  The tracker's state (window, then both sketches) is the tail
/// of the payload, just before the admission flag byte.
struct HotspotCheckpoint {
  std::string bytes;
  std::size_t window_at = 0;
  std::uint64_t window_entries = 0;
};

HotspotCheckpoint hotspot_checkpoint() {
  HotspotSim h = hotspot_sim();
  h.sim->run(4 * kWindow + 5);  // four windows closed, five steps pending
  const obs::HotspotTracker& tracker = *h.telemetry->hotspots();
  EXPECT_GE(tracker.queue_sketch().top().size(), 2u);
  std::ostringstream tracker_os(std::ios::binary);
  tracker.save_state(tracker_os);
  const std::string tracker_bytes = tracker_os.str();
  HotspotCheckpoint c;
  std::ostringstream os(std::ios::binary);
  h.sim->save_checkpoint(os);
  c.bytes = os.str();
  c.window_at = c.bytes.size() - 1 - tracker_bytes.size();
  EXPECT_EQ(c.bytes.substr(c.window_at, tracker_bytes.size()), tracker_bytes);
  c.window_entries = read_u64(tracker_bytes, 0);
  return c;
}

std::string hotspot_checkpoint_bytes() { return hotspot_checkpoint().bytes; }

TEST(CheckpointFuzz, ResealedHotspotCheckpointRestores) {
  // The splice itself is sound: rewriting a key with its own value and
  // re-sealing yields a checkpoint that restores.
  const std::string bytes = hotspot_checkpoint_bytes();
  const std::size_t at = queue_key_at(bytes, 1);
  const std::string same = with_u64(bytes, at, read_u64(bytes, at));
  ASSERT_EQ(same, bytes);
  HotspotSim victim = hotspot_sim();
  std::istringstream is(same, std::ios::binary);
  EXPECT_NO_THROW(victim.sim->restore_checkpoint(is));
}

TEST(CheckpointFuzz, HotspotSketchDuplicateKeyIsRejected) {
  const std::string bytes = hotspot_checkpoint_bytes();
  const std::size_t last = queue_key_at(bytes, 1);
  const std::uint64_t other = read_u64(bytes, queue_key_at(bytes, 2));
  ASSERT_NE(read_u64(bytes, last), other);
  const std::string corrupt = with_u64(bytes, last, other);
  HotspotSim victim = hotspot_sim();
  std::istringstream is(corrupt, std::ios::binary);
  EXPECT_THROW(victim.sim->restore_checkpoint(is), core::CheckpointError);
}

TEST(CheckpointFuzz, HotspotSketchKeyBeyondTheNetworkIsRejected) {
  const std::string bytes = hotspot_checkpoint_bytes();
  const auto n =
      static_cast<std::uint64_t>(small_sim()->network().node_count());
  for (const std::uint64_t key :
       {n, std::uint64_t{1} << 40, ~std::uint64_t{0}}) {
    const std::string corrupt = with_u64(bytes, queue_key_at(bytes, 1), key);
    HotspotSim victim = hotspot_sim();
    std::istringstream is(corrupt, std::ios::binary);
    EXPECT_THROW(victim.sim->restore_checkpoint(is), core::CheckpointError)
        << "key " << key;
  }
}

/// FNV-1a digest of `steps` further steps: every step's queues, then the
/// final checkpoint bytes (which carry the telemetry state).
std::uint64_t continuation_digest(core::Simulator& sim, TimeStep steps) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      h ^= (value >> (8 * i)) & 0xFFu;
      h *= 0x100000001b3ULL;
    }
  };
  for (TimeStep i = 0; i < steps; ++i) {
    sim.step();
    for (const PacketCount q : sim.queues()) {
      mix(static_cast<std::uint64_t>(q));
    }
  }
  std::ostringstream os(std::ios::binary);
  sim.save_checkpoint(os);
  for (const char c : os.str()) mix(static_cast<unsigned char>(c));
  return h;
}

std::vector<char> mask_bits(const graph::EdgeMask& mask) {
  std::vector<char> bits;
  for (EdgeId e = 0; e < mask.size(); ++e) bits.push_back(mask.active(e));
  return bits;
}

std::vector<PacketCount> totals_of(const core::CumulativeStats& c) {
  return {c.injected, c.proposed, c.suppressed, c.conflicted,
          c.sent,     c.lost,     c.delivered,  c.extracted,
          c.crash_wiped, c.shed,  c.steps};
}

/// Restores `corrupt` into a victim built by `make` that has run into a
/// window of its own, and expects a clean rejection, for the reason `why`,
/// that leaves the victim exactly as it was: clock, queues, totals, edge
/// mask and telemetry state, and 20 further steps that match an untouched
/// twin's.
void expect_rejected_and_unchanged(const std::string& corrupt,
                                   const std::string& why,
                                   HotspotSim (*make)() = hotspot_sim) {
  HotspotSim victim = make();
  victim.sim->run(kWindow + 3);
  const TimeStep now = victim.sim->now();
  const std::vector<PacketCount> queues(victim.sim->queues().begin(),
                                        victim.sim->queues().end());
  const std::vector<PacketCount> totals =
      totals_of(victim.sim->cumulative());
  const std::vector<char> mask = mask_bits(victim.sim->edge_mask());
  const std::string before = telemetry_bytes(*victim.telemetry);
  std::istringstream is(corrupt, std::ios::binary);
  try {
    victim.sim->restore_checkpoint(is);
    ADD_FAILURE() << "restored a checkpoint that should fail with: " << why;
  } catch (const core::CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find(why), std::string::npos) << e.what();
  }
  EXPECT_EQ(victim.sim->now(), now);
  EXPECT_TRUE(std::equal(queues.begin(), queues.end(),
                         victim.sim->queues().begin(),
                         victim.sim->queues().end()));
  EXPECT_EQ(totals_of(victim.sim->cumulative()), totals);
  EXPECT_EQ(mask_bits(victim.sim->edge_mask()), mask);
  EXPECT_EQ(telemetry_bytes(*victim.telemetry), before);

  HotspotSim twin = make();
  twin.sim->run(kWindow + 3);
  EXPECT_EQ(continuation_digest(*victim.sim, 20),
            continuation_digest(*twin.sim, 20));
}

TEST(CheckpointFuzz, ResealedPendingWindowRestores) {
  const HotspotCheckpoint c = hotspot_checkpoint();
  ASSERT_GE(c.window_entries, 2u) << "the fixture must end mid-window";
  const std::size_t first_node = c.window_at + 8;
  const std::string same =
      with_u64(c.bytes, first_node, read_u64(c.bytes, first_node));
  ASSERT_EQ(same, c.bytes);
  // The victim is mid-window itself: the restored window replaces its
  // pending sums, it is not merged with them.
  HotspotSim victim = hotspot_sim();
  victim.sim->run(kWindow + 3);
  std::istringstream is(same, std::ios::binary);
  ASSERT_NO_THROW(victim.sim->restore_checkpoint(is));
  std::ostringstream again(std::ios::binary);
  victim.sim->save_checkpoint(again);
  EXPECT_EQ(again.str(), c.bytes);
}

TEST(CheckpointFuzz, PendingWindowNodeBeyondTheNetworkIsRejected) {
  const HotspotCheckpoint c = hotspot_checkpoint();
  ASSERT_GE(c.window_entries, 2u);
  const auto n =
      static_cast<std::uint64_t>(small_sim()->network().node_count());
  const std::size_t last_node = c.window_at + 8 + 24 * (c.window_entries - 1);
  for (const std::uint64_t node : {n, std::uint64_t{1} << 40,
                                   ~std::uint64_t{0}}) {
    SCOPED_TRACE(node);
    expect_rejected_and_unchanged(with_u64(c.bytes, last_node, node),
                                  "window node");
  }
}

TEST(CheckpointFuzz, PendingWindowNodesOutOfOrderAreRejected) {
  const HotspotCheckpoint c = hotspot_checkpoint();
  ASSERT_GE(c.window_entries, 2u);
  const std::size_t first_node = c.window_at + 8;
  const std::size_t second_node = first_node + 24;
  const std::uint64_t first = read_u64(c.bytes, first_node);
  const std::uint64_t second = read_u64(c.bytes, second_node);
  ASSERT_LT(first, second);
  // A repeated node, and a swapped pair.
  expect_rejected_and_unchanged(with_u64(c.bytes, second_node, first),
                                "not strictly ascending");
  expect_rejected_and_unchanged(
      with_u64(with_u64(c.bytes, first_node, second), second_node, first),
      "not strictly ascending");
}

TEST(CheckpointFuzz, PendingWindowCountAboveTheNodeCountIsRejected) {
  const HotspotCheckpoint c = hotspot_checkpoint();
  const auto n =
      static_cast<std::uint64_t>(small_sim()->network().node_count());
  for (const std::uint64_t count : {n + 1, std::uint64_t{1} << 40,
                                    ~std::uint64_t{0}}) {
    SCOPED_TRACE(count);
    expect_rejected_and_unchanged(with_u64(c.bytes, c.window_at, count),
                                  "entries for");
  }
}

/// hotspot_sim() with a fault injector whose checkpoint state has one
/// entry of each kind: node 1 down (frozen), edge 0 removed and node 2
/// departed.
HotspotSim fault_sim() {
  core::FaultSchedule schedule;
  schedule.add({core::FaultKind::kCrash, 1, 5, 1000, core::CrashMode::kFreeze,
                0, 0});
  core::FaultEvent remove;
  remove.kind = core::FaultKind::kEdgeRemove;
  remove.edge = 0;
  remove.at = 6;
  schedule.add(remove);
  core::FaultEvent leave;
  leave.kind = core::FaultKind::kNodeLeave;
  leave.node = 2;
  leave.at = 8;
  schedule.add(leave);
  HotspotSim h = hotspot_sim();
  h.sim->set_faults(std::make_unique<core::FaultInjector>(schedule, 0xFA));
  return h;
}

/// A fault checkpoint with the payload offsets of its injector's entries.
/// The injector blob is a u32 down count, (i64 node, i64 until, u8 now)
/// entries, the RNG engine as a u32-length string, a u32 removed-edge
/// count, i64 edge ids, a u32 departed count, then (i64 node, i64 in,
/// i64 out, i64 retention) entries.
struct FaultCheckpoint {
  std::string bytes;
  std::size_t down_node_at = 0;
  std::size_t removed_edge_at = 0;
  std::size_t departed_node_at = 0;
};

std::uint32_t read_u32(const std::string& bytes, std::size_t at) {
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |=
        static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[at + i]))
        << (8 * i);
  }
  return value;
}

FaultCheckpoint fault_checkpoint() {
  HotspotSim h = fault_sim();
  h.sim->run(4 * kWindow + 5);
  std::ostringstream blob_os(std::ios::binary);
  h.sim->faults()->save_state(blob_os);
  const std::string blob = blob_os.str();
  FaultCheckpoint c;
  std::ostringstream os(std::ios::binary);
  h.sim->save_checkpoint(os);
  c.bytes = os.str();
  const std::size_t at = c.bytes.find(blob);
  EXPECT_NE(at, std::string::npos);
  EXPECT_EQ(c.bytes.find(blob, at + 1), std::string::npos);
  EXPECT_EQ(read_u32(blob, 0), 1u);  // one down entry
  c.down_node_at = at + 4;
  const std::size_t rng_at = 4 + 17;
  const std::size_t removed_at = rng_at + 4 + read_u32(blob, rng_at);
  EXPECT_EQ(read_u32(blob, removed_at), 1u);  // one removed edge
  c.removed_edge_at = at + removed_at + 4;
  EXPECT_EQ(read_u32(blob, removed_at + 12), 1u);  // one departed node
  c.departed_node_at = at + removed_at + 16;
  EXPECT_EQ(read_u64(c.bytes, c.down_node_at), 1u);
  EXPECT_EQ(read_u64(c.bytes, c.removed_edge_at), 0u);
  EXPECT_EQ(read_u64(c.bytes, c.departed_node_at), 2u);
  return c;
}

TEST(CheckpointFuzz, ResealedFaultCheckpointRestores) {
  const FaultCheckpoint c = fault_checkpoint();
  const std::string same =
      with_u64(c.bytes, c.down_node_at, read_u64(c.bytes, c.down_node_at));
  ASSERT_EQ(same, c.bytes);
  HotspotSim victim = fault_sim();
  victim.sim->run(kWindow + 3);
  std::istringstream is(same, std::ios::binary);
  ASSERT_NO_THROW(victim.sim->restore_checkpoint(is));
  std::ostringstream again(std::ios::binary);
  victim.sim->save_checkpoint(again);
  EXPECT_EQ(again.str(), c.bytes);
}

TEST(CheckpointFuzz, FaultNodeOutsideTheNetworkIsRejected) {
  // 2^32 + 5 once truncated to node 5 when sizing the injector and then
  // wrote far past its tables.
  const FaultCheckpoint c = fault_checkpoint();
  const auto n =
      static_cast<std::uint64_t>(small_sim()->network().node_count());
  for (const std::uint64_t node :
       {n, (std::uint64_t{1} << 32) + 5, ~std::uint64_t{0}}) {
    SCOPED_TRACE(node);
    expect_rejected_and_unchanged(with_u64(c.bytes, c.down_node_at, node),
                                  "outside the network", fault_sim);
    expect_rejected_and_unchanged(
        with_u64(c.bytes, c.departed_node_at, node), "outside the network",
        fault_sim);
  }
}

TEST(CheckpointFuzz, FaultEdgeOutsideTheNetworkIsRejected) {
  const FaultCheckpoint c = fault_checkpoint();
  const auto m = static_cast<std::uint64_t>(
      small_sim()->network().topology().edge_count());
  for (const std::uint64_t edge :
       {m, std::uint64_t{1} << 40, ~std::uint64_t{0}}) {
    SCOPED_TRACE(edge);
    expect_rejected_and_unchanged(with_u64(c.bytes, c.removed_edge_at, edge),
                                  "outside the network", fault_sim);
  }
}

TEST(CheckpointFuzz, NegativeParkedSpecIsRejected) {
  const FaultCheckpoint c = fault_checkpoint();
  for (std::size_t field = 0; field < 3; ++field) {
    SCOPED_TRACE(field);
    expect_rejected_and_unchanged(
        with_u64(c.bytes, c.departed_node_at + 8 + 8 * field,
                 ~std::uint64_t{0}),
        "negative parked spec", fault_sim);
  }
}

/// Payload offset of the edge-mask slot's first byte (the random-churn
/// bits): t, topology version, initial total, Σq and Σq² (48 bytes), the
/// u32 node count and i64 queues, then the u32 edge count.
std::size_t mask_slot_at(const std::string& bytes, std::uint32_t nodes) {
  constexpr std::size_t kPayloadAt = sizeof(core::kCheckpointMagic) + 4 + 8 + 4;
  const std::size_t node_count_at = kPayloadAt + 48;
  EXPECT_EQ(read_u32(bytes, node_count_at), nodes);
  return node_count_at + 4 + 8 * std::size_t{nodes} + 4;
}

TEST(CheckpointFuzz, RandomChurnBitWithoutRandomChurnIsRejected) {
  // The mask slot may hold an edge down only when the restoring simulator
  // has random churn installed: without an injector, and with one whose
  // schedule has no random churn.
  const auto net = small_sim()->network();
  const auto nodes = static_cast<std::uint32_t>(net.node_count());
  const std::string plain = hotspot_checkpoint().bytes;
  const std::string faulted = fault_checkpoint().bytes;
  for (const EdgeId e : {EdgeId{0}, net.topology().edge_count() - 1}) {
    SCOPED_TRACE(e);
    const std::size_t at = mask_slot_at(plain, nodes) + e;
    ASSERT_EQ(plain[at], 1);
    expect_rejected_and_unchanged(with_uint(plain, at, 0, 1),
                                  "held down by random churn");
    const std::size_t fat = mask_slot_at(faulted, nodes) + e;
    ASSERT_EQ(faulted[fat], 1);
    expect_rejected_and_unchanged(with_uint(faulted, fat, 0, 1),
                                  "held down by random churn", fault_sim);
  }
}

TEST(CheckpointFuzz, NonEmptyDynamicsBlobIsRejected) {
  // The dynamics component keeps its label and an empty blob; a blob with
  // content (say, one written by a removed dynamics model) is rejected.
  constexpr std::size_t kSizeAt = sizeof(core::kCheckpointMagic) + 4;
  const std::string bytes = fault_checkpoint().bytes;
  const std::string label = std::string("\x08\0\0\0dynamics", 12);
  const std::size_t at = bytes.find(label);
  ASSERT_NE(at, std::string::npos);
  const std::size_t blob_at = at + label.size();
  ASSERT_EQ(read_u32(bytes, blob_at), 0u);
  for (const std::string& blob : {std::string(1, '\0'), std::string("state")}) {
    SCOPED_TRACE(blob.size());
    std::string corrupt = bytes;
    corrupt.insert(blob_at + 4, blob);
    corrupt = with_uint(std::move(corrupt), blob_at, blob.size(), 4);
    corrupt = with_u64(std::move(corrupt), kSizeAt,
                       read_u64(bytes, kSizeAt) + blob.size());
    expect_rejected_and_unchanged(corrupt, "non-empty dynamics", fault_sim);
  }
}

/// hotspot_sim() routing with stale LGG, whose checkpoint blob is its
/// declaration history: a u32 depth, then per snapshot a u32 length and
/// that many i64 declarations.
constexpr int kStaleDelay = 2;
HotspotSim stale_sim() {
  return with_hotspots(
      small_sim(std::make_unique<baselines::StaleLggProtocol>(kStaleDelay)));
}

/// A stale-LGG checkpoint with the payload offset of its protocol blob and
/// the node count every snapshot must have.
struct StaleCheckpoint {
  std::string bytes;
  std::size_t blob_at = 0;
  std::uint32_t nodes = 0;

  /// Offset of snapshot k's u32 length.
  [[nodiscard]] std::size_t length_at(std::uint32_t k) const {
    return blob_at + 4 + k * (4 + 8 * static_cast<std::size_t>(nodes));
  }
};

StaleCheckpoint stale_checkpoint() {
  HotspotSim h = stale_sim();
  h.sim->run(4 * kWindow + 5);
  std::ostringstream blob_os(std::ios::binary);
  h.sim->protocol().save_state(blob_os);
  const std::string blob = blob_os.str();
  StaleCheckpoint c;
  std::ostringstream os(std::ios::binary);
  h.sim->save_checkpoint(os);
  c.bytes = os.str();
  c.blob_at = c.bytes.find(blob);
  EXPECT_NE(c.blob_at, std::string::npos);
  EXPECT_EQ(c.bytes.find(blob, c.blob_at + 1), std::string::npos);
  c.nodes = static_cast<std::uint32_t>(h.sim->network().node_count());
  EXPECT_EQ(read_u32(blob, 0), std::uint32_t{kStaleDelay + 1});
  EXPECT_EQ(blob.size(), c.length_at(kStaleDelay + 1) - c.blob_at);
  return c;
}

TEST(CheckpointFuzz, ResealedStaleHistoryRestores) {
  const StaleCheckpoint c = stale_checkpoint();
  const std::size_t at = c.length_at(kStaleDelay);
  const std::string same = with_uint(c.bytes, at, read_u32(c.bytes, at), 4);
  ASSERT_EQ(same, c.bytes);
  HotspotSim victim = stale_sim();
  victim.sim->run(kWindow + 3);
  std::istringstream is(same, std::ios::binary);
  ASSERT_NO_THROW(victim.sim->restore_checkpoint(is));
  std::ostringstream again(std::ios::binary);
  victim.sim->save_checkpoint(again);
  EXPECT_EQ(again.str(), c.bytes);
}

TEST(CheckpointFuzz, StaleSnapshotShorterThanTheNetworkIsRejected) {
  // Shortening the last snapshot leaves its tail unread rather than
  // misaligning the rest of the blob; selection would then index past it.
  const StaleCheckpoint c = stale_checkpoint();
  for (const std::uint32_t k : {0u, std::uint32_t{kStaleDelay}}) {
    SCOPED_TRACE(k);
    expect_rejected_and_unchanged(
        with_uint(c.bytes, c.length_at(k), c.nodes - 1, 4), "network has",
        stale_sim);
  }
}

TEST(CheckpointFuzz, StaleSnapshotLengthBeyondTheBlobIsRejected) {
  // A length near 2^32 once sized a ~32 GiB vector before any read.
  const StaleCheckpoint c = stale_checkpoint();
  for (const std::uint32_t length : {0xFFFFFFFFu, 1u << 31, 1u << 20}) {
    SCOPED_TRACE(length);
    expect_rejected_and_unchanged(
        with_uint(c.bytes, c.length_at(0), length, 4), "overruns the blob",
        stale_sim);
  }
}

TEST(CheckpointFuzz, StaleHistoryDeeperThanTheDelayIsRejected) {
  const StaleCheckpoint c = stale_checkpoint();
  for (const std::uint32_t depth :
       {std::uint32_t{kStaleDelay + 2}, 0xFFFFFFFFu}) {
    SCOPED_TRACE(depth);
    expect_rejected_and_unchanged(with_uint(c.bytes, c.blob_at, depth, 4),
                                  "exceeds delay + 1", stale_sim);
  }
}

TEST(CheckpointFuzz, ManifestFlipsYieldNulloptNeverThrow) {
  // Build a real two-generation manifest, then flip every byte of it.
  const std::string dir = ::testing::TempDir();
  const std::string base = dir + "/fuzz.ckpt";
  auto sim = small_sim();
  core::CheckpointChain chain(base, 2);
  sim->run(10);
  chain.append(*sim, 123);
  sim->run(10);
  chain.append(*sim, 456);
  std::string manifest;
  {
    std::ifstream is(chain.manifest_path(), std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    manifest = os.str();
  }
  ASSERT_GT(manifest.size(), 0u);
  ASSERT_TRUE(
      core::CheckpointChain::read_manifest(chain.manifest_path()).has_value());

  const std::string victim_path = dir + "/fuzz_victim.manifest";
  for (std::size_t offset = 0; offset < manifest.size(); ++offset) {
    std::string corrupt = manifest;
    corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0x5A);
    {
      std::ofstream os(victim_path, std::ios::binary | std::ios::trunc);
      os << corrupt;
    }
    // The trailing CRC covers every preceding byte, so any flip is either
    // a CRC mismatch or a torn crc line — both nullopt, neither a throw.
    EXPECT_FALSE(core::CheckpointChain::read_manifest(victim_path).has_value())
        << "offset " << offset;
  }
  for (const std::string& leftover :
       {chain.generation_path(1), chain.generation_path(2),
        chain.manifest_path(), victim_path}) {
    std::remove(leftover.c_str());
  }
}

}  // namespace
}  // namespace lgg
