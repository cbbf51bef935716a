// common::Backoff against the three hand-written loops it replaced: the
// delay sequences of the run supervisor, the chaos executor (with its
// ±25% seed-derived jitter) and the sweep must come out unchanged.
#include "common/backoff.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace lgg::common {
namespace {

constexpr int kRetries = 24;

// (initial, cap) pairs: the shipped defaults, zero, an initial above the
// cap, a zero cap, odd values and a cap never reached.
const std::vector<std::pair<std::int64_t, std::int64_t>> kSettings = {
    {50, 2000}, {10, 1000}, {0, 2000}, {1, 4},   {3000, 2000},
    {7, 7},     {5, 0},     {3, 1001}, {1, std::int64_t{1} << 40},
};

// analysis/supervisor.cpp: the pause before each recovery attempt.
std::vector<std::int64_t> old_supervisor(std::int64_t initial,
                                         std::int64_t cap) {
  std::vector<std::int64_t> slept;
  std::int64_t backoff_ms = initial;
  for (int k = 0; k < kRetries; ++k) {
    slept.push_back(backoff_ms > 0 ? backoff_ms : 0);
    backoff_ms = std::min(backoff_ms > 0 ? backoff_ms * 2 : 0, cap);
  }
  return slept;
}

// chaos/executor.cpp: the jittered pause before attempts 2, 3, ...
std::vector<std::int64_t> old_executor(std::int64_t initial, std::int64_t cap,
                                       std::uint64_t seed) {
  std::vector<std::int64_t> slept;
  std::int64_t backoff = initial;
  for (int attempt = 2; attempt < kRetries + 2; ++attempt) {
    const std::int64_t quarter = backoff / 4;
    std::int64_t jittered = backoff;
    if (quarter > 0) {
      const std::uint64_t mixed =
          derive_seed(seed, 0xB0FFu + static_cast<unsigned>(attempt));
      jittered += static_cast<std::int64_t>(
                      mixed % static_cast<std::uint64_t>(2 * quarter + 1)) -
                  quarter;
    }
    slept.push_back(jittered);
    backoff = std::min(backoff * 2, cap);
  }
  return slept;
}

// analysis/sweep.cpp: the pause before each retried replicate.
std::vector<std::int64_t> old_sweep(std::chrono::milliseconds initial,
                                    std::chrono::milliseconds cap) {
  std::vector<std::int64_t> slept;
  auto backoff = initial;
  for (int attempt = 1; attempt <= kRetries; ++attempt) {
    if (backoff.count() > 0) {
      slept.push_back(backoff.count());
      backoff = std::min(backoff * 2, cap);
    } else {
      slept.push_back(0);
    }
  }
  return slept;
}

TEST(Backoff, MatchesTheSupervisorAndSweepLoops) {
  for (const auto& [initial, cap] : kSettings) {
    Backoff backoff(initial, cap);
    std::vector<std::int64_t> got;
    for (int k = 0; k < kRetries; ++k) got.push_back(backoff.next());
    EXPECT_EQ(got, old_supervisor(initial, cap)) << initial << " " << cap;
    EXPECT_EQ(got, old_sweep(std::chrono::milliseconds(initial),
                             std::chrono::milliseconds(cap)))
        << initial << " " << cap;
  }
}

TEST(Backoff, MatchesTheExecutorJitter) {
  for (const std::uint64_t seed : {0ULL, 1ULL, 0xC0FFEEULL}) {
    for (const auto& [initial, cap] : kSettings) {
      Backoff backoff(initial, cap);
      std::vector<std::int64_t> got;
      for (int attempt = 2; attempt < kRetries + 2; ++attempt) {
        got.push_back(backoff.next_jittered(
            derive_seed(seed, 0xB0FFu + static_cast<unsigned>(attempt))));
      }
      EXPECT_EQ(got, old_executor(initial, cap, seed))
          << initial << " " << cap << " seed " << seed;
    }
  }
}

TEST(Backoff, NegativeSettingsNeverWait) {
  Backoff backoff(-5, -1);
  for (int k = 0; k < 4; ++k) EXPECT_EQ(backoff.next(), 0);
  Backoff capped(-5, 100);
  for (int k = 0; k < 4; ++k) EXPECT_EQ(capped.next_jittered(k), 0);
}

TEST(Backoff, DoublingSaturatesAtTheCapWithoutOverflow) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  Backoff backoff(1, kMax);
  std::int64_t last = 0;
  for (int k = 0; k < 70; ++k) last = backoff.next();
  EXPECT_EQ(last, kMax);
}

}  // namespace
}  // namespace lgg::common
