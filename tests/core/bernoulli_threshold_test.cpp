// BernoulliLoss marks losses by comparing each raw engine word with a
// threshold T found once per p, instead of calling Rng::bernoulli per
// transmission.  These tests hold it to Rng::bernoulli draw for draw:
// on random streams, and on engine states crafted so that the next word
// is exactly T - 1 or T, where the two outcomes must flip.
#include "core/loss.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

namespace lgg::core {
namespace {

/// Inverse of x ^= x >> shift on 64-bit words.
std::uint64_t unxorshift(std::uint64_t z, int shift) {
  std::uint64_t x = z;
  for (int done = shift; done < 64; done += shift) x = z ^ (x >> shift);
  return x;
}

/// Multiplicative inverse of an odd 64-bit word (Newton iteration).
std::uint64_t inverse(std::uint64_t a) {
  std::uint64_t x = a;
  for (int i = 0; i < 6; ++i) x *= 2 - a * x;
  return x;
}

/// The SplitMix64Engine state whose next output is `word`.
std::uint64_t state_before(std::uint64_t word) {
  std::uint64_t z = unxorshift(word, 31);
  z *= inverse(0x94d049bb133111ebULL);
  z = unxorshift(z, 27);
  z *= inverse(0xbf58476d1ce4e5b9ULL);
  z = unxorshift(z, 30);
  return z - 0x9e3779b97f4a7c15ULL;
}

/// An Rng whose next raw word is `word`.
Rng rng_yielding(std::uint64_t word) {
  Rng rng;
  rng.engine().seed(state_before(word));
  return rng;
}

/// One BernoulliLoss decision on a single transmission.
bool loss_marks(BernoulliLoss& loss, Rng& rng) {
  const std::vector<Transmission> txs = {{0, 0, 1}};
  std::vector<char> lost(1, 0);
  loss.mark_losses(StepView{}, txs, rng, lost);
  return lost[0] != 0;
}

const double kProbabilities[] = {0.0,
                                 1.0,
                                 1e-300,
                                 0.5,
                                 std::nextafter(1.0, 0.0),
                                 1e-3,
                                 0.3,
                                 0.05};

TEST(BernoulliThreshold, CraftedEngineStatesYieldTheirWord) {
  std::mt19937_64 gen(7);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t word = gen();
    EXPECT_EQ(rng_yielding(word)(), word);
  }
  EXPECT_EQ(rng_yielding(0)(), 0u);
  EXPECT_EQ(rng_yielding(~std::uint64_t{0})(), ~std::uint64_t{0});
}

TEST(BernoulliThreshold, DecisionFlipsExactlyAtTheThreshold) {
  for (const double p : kProbabilities) {
    if (p <= 0.0 || p >= 1.0) continue;
    SCOPED_TRACE(p);
    const std::uint64_t threshold = BernoulliLoss::raw_threshold(p);
    ASSERT_GT(threshold, 0u);
    BernoulliLoss loss(p);
    for (const std::uint64_t word :
         {threshold - 1, threshold, std::uint64_t{0}, ~std::uint64_t{0}}) {
      Rng reference = rng_yielding(word);
      Rng fast = rng_yielding(word);
      const bool want = reference.bernoulli(p);
      EXPECT_EQ(loss_marks(loss, fast), want) << "word " << word;
      EXPECT_EQ(want, word < threshold) << "word " << word;
      EXPECT_EQ(fast.engine(), reference.engine());
    }
  }
}

TEST(BernoulliThreshold, KnownThresholds) {
  // Only the zero word maps below 1e-300 (the next canonical value is
  // 2^-64 ≈ 5.4e-20).
  EXPECT_EQ(BernoulliLoss::raw_threshold(1e-300), 1u);
  // The canonical value is the word rounded to double, over 2^64.  Just
  // below 2^63 doubles are 1024 apart, and the halfway word 2^63 - 512
  // rounds to even, up to 2^63: the first word whose value is 0.5.
  EXPECT_EQ(BernoulliLoss::raw_threshold(0.5),
            (std::uint64_t{1} << 63) - 512);
}

TEST(BernoulliThreshold, MatchesRngBernoulliOnRandomStreams) {
  for (const double p : kProbabilities) {
    SCOPED_TRACE(p);
    BernoulliLoss loss(p);
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
      Rng reference(seed);
      Rng fast(seed);
      const std::vector<Transmission> txs(500, Transmission{0, 0, 1});
      std::vector<char> lost(txs.size(), 0);
      loss.mark_losses(StepView{}, txs, fast, lost);
      for (std::size_t i = 0; i < txs.size(); ++i) {
        ASSERT_EQ(lost[i] != 0, reference.bernoulli(p))
            << "seed " << seed << " transmission " << i;
      }
      // Same number of draws: p = 0 and p = 1 draw nothing.
      EXPECT_EQ(fast.engine(), reference.engine());
    }
  }
}

TEST(BernoulliThreshold, RawThresholdRejectsDegenerateP) {
  EXPECT_THROW((void)BernoulliLoss::raw_threshold(0.0), ContractViolation);
  EXPECT_THROW((void)BernoulliLoss::raw_threshold(1.0), ContractViolation);
}

}  // namespace
}  // namespace lgg::core
