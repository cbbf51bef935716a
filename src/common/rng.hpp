// Seeding discipline for the whole library.
//
// Every stochastic component takes an explicit 64-bit seed; replicate k of
// an experiment derives its seed with `derive_seed(master, k)` (SplitMix64
// mixing) so parallel replicates are independent and the whole run is
// reproducible from one master seed.
//
// The simulation hot path goes one step further: a draw is *addressed*,
// not sequenced.  Instead of pulling from one serial stream (whose value
// depends on every draw made before it), each stochastic site derives its
// own stream seed from the coordinate (master seed, step, phase, node) via
// `draw_key` and mints a throwaway Rng from it.  Two consequences:
//
//   * the value drawn at a site is a pure function of its coordinate, so
//     iterating nodes in any grouping — one thread or many shards — yields
//     the same trajectory bit for bit;
//   * skipping a site (e.g. a policy that needs no randomness for a node)
//     cannot shift any other site's value.
//
// The engine is SplitMix64 itself: construction is O(1) (a single 64-bit
// state word), so minting an Rng per (phase, node) costs two multiplies,
// not a 312-word Mersenne-Twister initialization.
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <random>

namespace lgg {

/// SplitMix64 mixing step — a strong 64-bit bijection used both for seed
/// derivation and as a tiny standalone generator.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The SplitMix64 finalizer alone (no counter advance) — a bijection on
/// 64-bit words, used to fold draw-site coordinates into a stream seed.
constexpr std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Derives an independent stream seed from a master seed and stream index.
constexpr std::uint64_t derive_seed(std::uint64_t master,
                                    std::uint64_t stream) {
  std::uint64_t s = master ^ (0x6a09e667f3bcc909ULL + stream * 0x9e3779b97f4a7c15ULL);
  (void)splitmix64(s);
  return splitmix64(s);
}

/// Node coordinate of a draw that belongs to a whole phase rather than to
/// one node (random edge churn, interference scheduling, loss marking).
inline constexpr std::uint64_t kGlobalDraw = ~std::uint64_t{0};

/// Stream seed owned by the draw site (step, phase, node) under `seed`.
/// Each coordinate is folded through the SplitMix64 finalizer, so nearby
/// coordinates (adjacent steps, adjacent nodes) give unrelated streams.
constexpr std::uint64_t draw_key(std::uint64_t seed, std::uint64_t step,
                                 std::uint64_t phase,
                                 std::uint64_t node = kGlobalDraw) {
  std::uint64_t k = mix64(seed + 0x9e3779b97f4a7c15ULL);
  k = mix64(k ^ (step + 0xbf58476d1ce4e5b9ULL));
  k = mix64(k ^ (phase + 0x94d049bb133111ebULL));
  k = mix64(k ^ (node + 0x2545f4914f6cdd1dULL));
  return k;
}

/// SplitMix64 as a standard uniform random bit generator: one 64-bit state
/// word, O(1) construction, full 2^64 output range.  Streams as its state
/// word so component checkpoints round-trip it exactly.
class SplitMix64Engine {
 public:
  using result_type = std::uint64_t;

  explicit SplitMix64Engine(std::uint64_t state = 0) : state_(state) {}

  void seed(std::uint64_t state) { state_ = state; }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }
  result_type operator()() { return splitmix64(state_); }

  friend bool operator==(const SplitMix64Engine&,
                         const SplitMix64Engine&) = default;

  friend std::ostream& operator<<(std::ostream& os,
                                  const SplitMix64Engine& e) {
    return os << e.state_;
  }
  friend std::istream& operator>>(std::istream& is, SplitMix64Engine& e) {
    return is >> e.state_;
  }

 private:
  std::uint64_t state_;
};

/// The library-wide random engine: SplitMix64 seeded through one extra
/// mixing step so nearby integer seeds give unrelated streams.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5eed'5eed'5eed'5eedULL) {
    std::uint64_t s = seed;
    engine_.seed(splitmix64(s));
  }

  static constexpr result_type min() { return SplitMix64Engine::min(); }
  static constexpr result_type max() { return SplitMix64Engine::max(); }
  result_type operator()() { return engine_(); }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Uniform real in [0, 1).
  double uniform01() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return std::bernoulli_distribution(p)(engine_);
  }

  SplitMix64Engine& engine() { return engine_; }
  [[nodiscard]] const SplitMix64Engine& engine() const { return engine_; }

 private:
  SplitMix64Engine engine_;
};

/// The Rng owning the addressed stream of draw site (step, phase, node).
inline Rng draw_rng(std::uint64_t seed, std::uint64_t step,
                    std::uint64_t phase,
                    std::uint64_t node = kGlobalDraw) {
  return Rng(draw_key(seed, step, phase, node));
}

}  // namespace lgg
