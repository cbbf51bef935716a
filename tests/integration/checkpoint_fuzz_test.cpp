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
// A CRC only catches accidents.  The hotspot sketch state is also checked
// for meaning: a checkpoint with a valid CRC whose sketch monitors one
// node twice, or a node the network does not have, is rejected too.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "lgg.hpp"

namespace lgg {
namespace {

std::unique_ptr<core::Simulator> small_sim() {
  core::SimulatorOptions options;
  options.seed = 0xF00D;
  auto sim = std::make_unique<core::Simulator>(
      core::scenarios::barbell_bottleneck(2, 1, 2), options,
      baselines::make_protocol("lgg"));
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
/// second so it is destroyed first).
struct HotspotSim {
  std::unique_ptr<obs::Telemetry> telemetry;
  std::unique_ptr<core::Simulator> sim;
};

HotspotSim hotspot_sim() {
  obs::TelemetryOptions topts;
  topts.hotspot_k = 4;
  HotspotSim h{std::make_unique<obs::Telemetry>(topts), small_sim()};
  h.sim->set_telemetry(h.telemetry.get());
  return h;
}

/// Overwrites the key of the queue sketch's `from_end`-th last entry and
/// re-seals the payload CRC.  The payload ends with the queue sketch's
/// 24-byte (key, weight, error) entries, then the admission flag byte.
std::string with_queue_key(std::string bytes, std::size_t from_end,
                           std::uint64_t key) {
  constexpr std::size_t kCrcAt = sizeof(core::kCheckpointMagic) + 4 + 8;
  constexpr std::size_t kPayloadAt = kCrcAt + 4;
  const std::size_t at = bytes.size() - 1 - 24 * from_end;
  for (int i = 0; i < 8; ++i) {
    bytes[at + i] = static_cast<char>(key >> (8 * i));
  }
  const std::uint32_t crc = core::crc32(bytes.data() + kPayloadAt,
                                        bytes.size() - kPayloadAt);
  for (int i = 0; i < 4; ++i) {
    bytes[kCrcAt + i] = static_cast<char>(crc >> (8 * i));
  }
  return bytes;
}

std::uint64_t read_key(const std::string& bytes, std::size_t from_end) {
  const std::size_t at = bytes.size() - 1 - 24 * from_end;
  std::uint64_t key = 0;
  for (int i = 0; i < 8; ++i) {
    key |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[at + i]))
           << (8 * i);
  }
  return key;
}

std::string hotspot_checkpoint_bytes() {
  HotspotSim h = hotspot_sim();
  h.sim->run(40);
  EXPECT_GE(h.telemetry->hotspots()->queue_sketch().top().size(), 2u);
  std::ostringstream os(std::ios::binary);
  h.sim->save_checkpoint(os);
  return os.str();
}

TEST(CheckpointFuzz, ResealedHotspotCheckpointRestores) {
  // The splice itself is sound: rewriting a key with its own value and
  // re-sealing yields a checkpoint that restores.
  const std::string bytes = hotspot_checkpoint_bytes();
  const std::string same = with_queue_key(bytes, 1, read_key(bytes, 1));
  ASSERT_EQ(same, bytes);
  HotspotSim victim = hotspot_sim();
  std::istringstream is(same, std::ios::binary);
  EXPECT_NO_THROW(victim.sim->restore_checkpoint(is));
}

TEST(CheckpointFuzz, HotspotSketchDuplicateKeyIsRejected) {
  const std::string bytes = hotspot_checkpoint_bytes();
  ASSERT_NE(read_key(bytes, 1), read_key(bytes, 2));
  const std::string corrupt = with_queue_key(bytes, 1, read_key(bytes, 2));
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
    const std::string corrupt = with_queue_key(bytes, 1, key);
    HotspotSim victim = hotspot_sim();
    std::istringstream is(corrupt, std::ios::binary);
    EXPECT_THROW(victim.sim->restore_checkpoint(is), core::CheckpointError)
        << "key " << key;
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
