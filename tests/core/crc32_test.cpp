// core::crc32 against the check value of the CRC-32/ISO-HDLC catalogue and
// against the one-byte-at-a-time definition, at every alignment.
#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>
#include <vector>

#include "core/checkpoint.hpp"

namespace lgg::core {
namespace {

std::uint32_t bytewise_crc32(const unsigned char* p, std::size_t n,
                             std::uint32_t seed) {
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) != 0 ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return ~crc;
}

TEST(Crc32, CheckValue) {
  constexpr std::string_view kCheck = "123456789";
  EXPECT_EQ(crc32(kCheck.data(), kCheck.size()), 0xCBF43926u);
  EXPECT_EQ(crc32(kCheck.data(), 0), 0u);
}

TEST(Crc32, EqualsBytewiseDefinitionAtEveryLengthAndOffset) {
  std::vector<unsigned char> buf(256 + 8);
  std::uint32_t x = 0x9E3779B9u;
  for (unsigned char& b : buf) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<unsigned char>(x >> 24);
  }
  for (const std::uint32_t seed : {0u, 0xDEADBEEFu}) {
    for (std::size_t offset = 0; offset < 8; ++offset) {
      for (std::size_t len = 0; len <= 256; ++len) {
        const unsigned char* p = buf.data() + offset;
        ASSERT_EQ(crc32(p, len, seed), bytewise_crc32(p, len, seed))
            << "offset " << offset << " length " << len << " seed " << seed;
      }
    }
  }
}

TEST(Crc32, SeedChainsSplitInputs) {
  constexpr std::string_view kText = "the quick brown fox jumps over the lazy";
  const std::uint32_t whole = crc32(kText.data(), kText.size());
  for (std::size_t cut = 0; cut <= kText.size(); ++cut) {
    const std::uint32_t head = crc32(kText.data(), cut);
    EXPECT_EQ(crc32(kText.data() + cut, kText.size() - cut, head), whole);
  }
}

}  // namespace
}  // namespace lgg::core
