#include "core/arrival.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/binio.hpp"
#include "common/require.hpp"
#include "core/sd_network.hpp"

namespace lgg::core {

namespace {

/// Flat-store sentinel: a node the process never touched.  Buckets can
/// never go negative in operation, so the value is unambiguous.
inline constexpr std::int64_t kUntouched = -1;

/// Shared load_state hardening for the flat sparse (index, value) blobs of
/// the stateful processes: bounded node count, in-range strictly-ascending
/// indices, and hard failure (std::runtime_error, matching binio's own
/// truncation behavior) instead of silent partial state.
inline constexpr std::uint32_t kMaxStateNodes = 1u << 26;

[[noreturn]] void bad_state(const char* process, const char* what) {
  throw std::runtime_error(std::string(process) + " state: " + what);
}

struct SparseHeader {
  std::uint32_t size = 0;
  std::uint32_t entries = 0;
};

SparseHeader read_sparse_header(std::istream& is, const char* process) {
  SparseHeader h;
  h.size = binio::read_u32(is);
  if (h.size > kMaxStateNodes) bad_state(process, "implausible node count");
  h.entries = binio::read_u32(is);
  if (h.entries > h.size) bad_state(process, "more entries than nodes");
  return h;
}

std::uint32_t read_sparse_index(std::istream& is, const char* process,
                                std::uint32_t size, std::int64_t prev) {
  const std::uint32_t idx = binio::read_u32(is);
  if (idx >= size) bad_state(process, "entry index out of range");
  if (static_cast<std::int64_t>(idx) <= prev) {
    bad_state(process, "entry indices not strictly ascending");
  }
  return idx;
}

}  // namespace

namespace envelope {

std::int64_t to_units(double value) {
  // 10^12 packets of allowance is far beyond any experiment; the clamp
  // keeps cap + per-step refill products well inside int64.
  constexpr double kMaxPackets = 1.0e12;
  const double clamped = std::min(value, kMaxPackets);
  return static_cast<std::int64_t>(
      std::floor(clamped * static_cast<double>(kTokenScale)));
}

}  // namespace envelope

ScaledArrival::ScaledArrival(double factor) : factor_(factor) {
  LGG_REQUIRE(std::isfinite(factor) && factor >= 0.0,
              "ScaledArrival: factor finite and >= 0");
}

PacketCount ScaledArrival::packets(NodeId, Cap in_rate, TimeStep t, Rng&) {
  const double rate = factor_ * static_cast<double>(in_rate);
  const auto before = static_cast<PacketCount>(
      std::floor(static_cast<double>(t) * rate + 1e-9));
  const auto after = static_cast<PacketCount>(
      std::floor(static_cast<double>(t + 1) * rate + 1e-9));
  return after - before;
}

BernoulliArrival::BernoulliArrival(double p) : p_(p) {
  LGG_REQUIRE(std::isfinite(p) && p >= 0.0 && p <= 1.0,
              "BernoulliArrival: p in [0,1]");
}

PacketCount BernoulliArrival::packets(NodeId, Cap in_rate, TimeStep,
                                      Rng& rng) {
  PacketCount count = 0;
  for (Cap i = 0; i < in_rate; ++i) {
    if (rng.bernoulli(p_)) ++count;
  }
  return count;
}

UniformArrival::UniformArrival(double mean_factor)
    : mean_factor_(mean_factor) {
  LGG_REQUIRE(std::isfinite(mean_factor) && mean_factor >= 0.0,
              "UniformArrival: mean_factor finite and >= 0");
}

PacketCount UniformArrival::packets(NodeId, Cap in_rate, TimeStep,
                                    Rng& rng) {
  // Uniform integer on [0, hi] has mean hi/2; pick hi = 2·mean.
  const double mean = mean_factor_ * static_cast<double>(in_rate);
  const auto hi = static_cast<PacketCount>(std::llround(2.0 * mean));
  if (hi <= 0) return 0;
  return rng.uniform_int(0, hi);
}

PoissonArrival::PoissonArrival(double mean_factor)
    : mean_factor_(mean_factor) {
  LGG_REQUIRE(std::isfinite(mean_factor) && mean_factor >= 0.0,
              "PoissonArrival: mean_factor finite and >= 0");
}

PacketCount PoissonArrival::packets(NodeId, Cap in_rate, TimeStep,
                                    Rng& rng) {
  const double mean = mean_factor_ * static_cast<double>(in_rate);
  if (mean <= 0.0) return 0;
  return std::poisson_distribution<PacketCount>(mean)(rng.engine());
}

GeometricArrival::GeometricArrival(double mean_factor)
    : mean_factor_(mean_factor) {
  LGG_REQUIRE(std::isfinite(mean_factor) && mean_factor >= 0.0,
              "GeometricArrival: mean_factor finite and >= 0");
}

PacketCount GeometricArrival::packets(NodeId, Cap in_rate, TimeStep,
                                      Rng& rng) {
  // Geometric with mean m has success probability 1/(1+m).
  const double mean = mean_factor_ * static_cast<double>(in_rate);
  if (mean <= 0.0) return 0;
  return std::geometric_distribution<PacketCount>(1.0 / (1.0 + mean))(
      rng.engine());
}

ParetoArrival::ParetoArrival(double alpha, double mean_factor)
    : alpha_(alpha), mean_factor_(mean_factor) {
  LGG_REQUIRE(std::isfinite(alpha) && alpha > 1.0,
              "ParetoArrival: alpha finite and > 1 (finite mean)");
  LGG_REQUIRE(std::isfinite(mean_factor) && mean_factor >= 0.0,
              "ParetoArrival: mean_factor finite and >= 0");
}

PacketCount ParetoArrival::packets(NodeId, Cap in_rate, TimeStep,
                                   Rng& rng) {
  const double mean = mean_factor_ * static_cast<double>(in_rate);
  if (mean <= 0.0) return 0;
  // Lomax (shifted Pareto) with tail index alpha has mean scale/(alpha−1);
  // invert the CDF on one addressed uniform draw.
  const double scale = mean * (alpha_ - 1.0);
  const double u = rng.uniform01();
  const double x = scale * (std::pow(1.0 - u, -1.0 / alpha_) - 1.0);
  constexpr double kTailClamp = 1.0e9;
  return static_cast<PacketCount>(std::floor(std::min(x, kTailClamp)));
}

DiurnalArrival::DiurnalArrival(double mean_factor, double amp,
                               TimeStep period)
    : mean_factor_(mean_factor), amp_(amp), period_(period) {
  LGG_REQUIRE(std::isfinite(mean_factor) && mean_factor >= 0.0,
              "DiurnalArrival: mean_factor finite and >= 0");
  LGG_REQUIRE(std::isfinite(amp) && amp >= 0.0 && amp <= 1.0,
              "DiurnalArrival: amp in [0,1] (rate stays non-negative)");
  LGG_REQUIRE(period >= 1, "DiurnalArrival: period >= 1");
}

double DiurnalArrival::cumulative(Cap in_rate, TimeStep t) const {
  // ∫ mean·in·(1 + amp·sin(2πu/period)) du from 0 to t, closed form; the
  // integrand is non-negative (amp <= 1), so the cumulative is monotone
  // and the floor-difference below can never go negative.
  constexpr double kTwoPi = 6.283185307179586476925286766559;
  const double mean = mean_factor_ * static_cast<double>(in_rate);
  const double omega = kTwoPi / static_cast<double>(period_);
  const double td = static_cast<double>(t);
  return mean * (td - amp_ / omega * (std::cos(omega * td) - 1.0));
}

PacketCount DiurnalArrival::packets(NodeId, Cap in_rate, TimeStep t, Rng&) {
  const auto before = static_cast<PacketCount>(
      std::floor(cumulative(in_rate, t) + 1e-9));
  const auto after = static_cast<PacketCount>(
      std::floor(cumulative(in_rate, t + 1) + 1e-9));
  return after - before;
}

BurstArrival::BurstArrival(double high_factor, double low_factor,
                           TimeStep burst_len, TimeStep period)
    : high_(high_factor),
      low_(low_factor),
      burst_len_(burst_len),
      period_(period) {
  LGG_REQUIRE(period >= 1, "BurstArrival: period >= 1");
  LGG_REQUIRE(burst_len >= 0 && burst_len <= period,
              "BurstArrival: 0 <= burst_len <= period");
  LGG_REQUIRE(std::isfinite(high_factor) && std::isfinite(low_factor) &&
                  high_factor >= 0.0 && low_factor >= 0.0,
              "BurstArrival: factors finite and >= 0");
}

PacketCount BurstArrival::packets(NodeId, Cap in_rate, TimeStep t, Rng&) {
  const TimeStep phase = t % period_;
  const double factor = phase < burst_len_ ? high_ : low_;
  return static_cast<PacketCount>(
      std::llround(factor * static_cast<double>(in_rate)));
}

double BurstArrival::average_factor() const {
  return (high_ * static_cast<double>(burst_len_) +
          low_ * static_cast<double>(period_ - burst_len_)) /
         static_cast<double>(period_);
}

LeakyBucketArrival::LeakyBucketArrival(double rho, double sigma)
    : rho_(rho), sigma_(sigma) {
  LGG_REQUIRE(std::isfinite(rho) && rho >= 0.0,
              "LeakyBucketArrival: rho finite and >= 0");
  LGG_REQUIRE(std::isfinite(sigma) && sigma >= 0.0,
              "LeakyBucketArrival: sigma finite and >= 0");
}

void LeakyBucketArrival::begin_step(const ArrivalContext& ctx) {
  if (ctx.net == nullptr) return;
  const auto n = static_cast<std::size_t>(ctx.net->node_count());
  if (bucket_.size() < n) bucket_.resize(n, kUntouched);
}

PacketCount LeakyBucketArrival::packets(NodeId v, Cap in_rate, TimeStep,
                                        Rng&) {
  // Lazy growth covers direct (simulator-less) use; under a simulator the
  // vector is presized by begin_step.
  if (static_cast<std::size_t>(v) >= bucket_.size()) {
    bucket_.resize(static_cast<std::size_t>(v) + 1, kUntouched);
  }
  const std::int64_t cap = envelope::to_units(sigma_);
  const std::int64_t rate =
      envelope::to_units(rho_ * static_cast<double>(in_rate));
  std::int64_t b = bucket_[static_cast<std::size_t>(v)];
  if (b == kUntouched) b = cap;  // the sigma burst is available up front
  b = std::min(cap, b + rate);
  const std::int64_t dump = b / envelope::kTokenScale;
  b -= dump * envelope::kTokenScale;
  bucket_[static_cast<std::size_t>(v)] = b;
  return dump;
}

void LeakyBucketArrival::save_state(std::ostream& os) const {
  std::uint32_t entries = 0;
  for (const std::int64_t b : bucket_) {
    if (b != kUntouched) ++entries;
  }
  binio::write_u32(os, static_cast<std::uint32_t>(bucket_.size()));
  binio::write_u32(os, entries);
  for (std::size_t i = 0; i < bucket_.size(); ++i) {
    if (bucket_[i] == kUntouched) continue;
    binio::write_u32(os, static_cast<std::uint32_t>(i));
    binio::write_i64(os, bucket_[i]);
  }
}

void LeakyBucketArrival::load_state(std::istream& is) {
  const SparseHeader h = read_sparse_header(is, "leaky_bucket");
  bucket_.assign(h.size, kUntouched);
  std::int64_t prev = -1;
  for (std::uint32_t i = 0; i < h.entries; ++i) {
    const std::uint32_t idx = read_sparse_index(is, "leaky_bucket", h.size,
                                                prev);
    const std::int64_t units = binio::read_i64(is);
    if (units < 0 || units > envelope::to_units(sigma_)) {
      bad_state("leaky_bucket", "token balance outside [0, sigma]");
    }
    bucket_[idx] = units;
    prev = idx;
  }
}

TokenBucketArrival::TokenBucketArrival(double r, double burst_cap,
                                       TimeStep hoard_period)
    : r_(r), burst_cap_(burst_cap), hoard_period_(hoard_period) {
  LGG_REQUIRE(std::isfinite(r) && r >= 0.0,
              "TokenBucketArrival: r finite and >= 0");
  LGG_REQUIRE(std::isfinite(burst_cap) && burst_cap >= 0.0,
              "TokenBucketArrival: burst_cap finite and >= 0");
  LGG_REQUIRE(hoard_period >= 1, "TokenBucketArrival: hoard_period >= 1");
}

void TokenBucketArrival::begin_step(const ArrivalContext& ctx) {
  if (ctx.net == nullptr) return;
  const auto n = static_cast<std::size_t>(ctx.net->node_count());
  if (tokens_.size() < n) tokens_.resize(n, 0.0);
}

PacketCount TokenBucketArrival::packets(NodeId v, Cap in_rate, TimeStep t,
                                        Rng&) {
  if (static_cast<std::size_t>(v) >= tokens_.size()) {
    tokens_.resize(static_cast<std::size_t>(v) + 1, 0.0);
  }
  double& tokens = tokens_[static_cast<std::size_t>(v)];
  tokens += r_ * static_cast<double>(in_rate);
  tokens = std::min(tokens, burst_cap_ + r_ * static_cast<double>(in_rate));
  if ((t + 1) % hoard_period_ != 0) return 0;  // hoard
  const auto dump = static_cast<PacketCount>(tokens);
  tokens -= static_cast<double>(dump);
  return dump;
}

void TokenBucketArrival::save_state(std::ostream& os) const {
  std::uint32_t entries = 0;
  for (const double t : tokens_) {
    if (t != 0.0) ++entries;
  }
  binio::write_u32(os, static_cast<std::uint32_t>(tokens_.size()));
  binio::write_u32(os, entries);
  for (std::size_t i = 0; i < tokens_.size(); ++i) {
    if (tokens_[i] == 0.0) continue;
    binio::write_u32(os, static_cast<std::uint32_t>(i));
    binio::write_f64(os, tokens_[i]);
  }
}

void TokenBucketArrival::load_state(std::istream& is) {
  const SparseHeader h = read_sparse_header(is, "token_bucket");
  tokens_.assign(h.size, 0.0);
  std::int64_t prev = -1;
  for (std::uint32_t i = 0; i < h.entries; ++i) {
    const std::uint32_t idx = read_sparse_index(is, "token_bucket", h.size,
                                                prev);
    const double balance = binio::read_f64(is);
    if (!std::isfinite(balance) || balance < 0.0) {
      bad_state("token_bucket", "non-finite or negative token balance");
    }
    tokens_[idx] = balance;
    prev = idx;
  }
}

TraceArrival::TraceArrival(std::map<NodeId, std::vector<PacketCount>> trace)
    : trace_(std::move(trace)) {
  for (const auto& [node, seq] : trace_) {
    (void)node;
    for (const PacketCount p : seq) {
      LGG_REQUIRE(p >= 0, "TraceArrival: negative injection in trace");
    }
  }
}

PacketCount TraceArrival::packets(NodeId v, Cap, TimeStep t, Rng&) {
  const auto it = trace_.find(v);
  if (it == trace_.end()) return 0;
  const auto& seq = it->second;
  if (t < 0 || static_cast<std::size_t>(t) >= seq.size()) return 0;
  return seq[static_cast<std::size_t>(t)];
}

}  // namespace lgg::core
