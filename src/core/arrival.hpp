// Packet arrival processes.
//
// The paper's base model injects exactly in(s) packets per step at every
// source; pseudo-sources (Def. 5) inject *at most* in(s); the conjectures
// consider time-varying (Conj. 2) and uniformly random (Conj. 3) arrivals.
// Each process maps (node, in-rate, step) to an injection count.
//
// Processes with cross-step or cross-node state hook the per-step
// `begin_step` callback (called exactly once per step, serially, before
// any packets() call) and may publish a sparse `active_sources` set so
// the injection phase only visits the sources that can inject this step —
// the mechanism behind O(active) injection on million-source topologies
// (src/traffic/adversary.hpp).
#pragma once

#include <iosfwd>
#include <map>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace lgg::obs {
class MetricRegistry;
}  // namespace lgg::obs

namespace lgg::core {

class SdNetwork;

/// Everything an arrival process may inspect at the top of a step.  Spans
/// alias simulator state and are only valid during the begin_step call.
struct ArrivalContext {
  TimeStep t = 0;
  const SdNetwork* net = nullptr;
  /// The network's source list (in > 0), ascending node order.
  std::span<const NodeId> sources;
  /// Live pre-injection queue snapshot, indexed by node — the hook the
  /// queue-aware adversary strategy reads to aim in-envelope bursts.
  std::span<const PacketCount> queues;
  /// The injection phase's *global* addressed stream (draw_key with
  /// kGlobalDraw): per-source packets() draws use per-node streams, so a
  /// begin_step draw can never shift any source's own stream.
  Rng* rng = nullptr;
};

/// Exact fixed-point token arithmetic shared by the envelope-bounded
/// processes (LeakyBucketArrival here, AdversarialArrival in src/traffic).
/// Working in integer token units of 2^-20 packets makes the (ρ,σ)
/// admissibility argument exact: rate_units = ⌊ρ·in·2^20⌋ ≤ ρ·in·2^20 and
/// cap_units = ⌊σ·2^20⌋ ≤ σ·2^20, so the telescoped window sum
/// Σa·2^20 ≤ cap_units + rate_units·w never exceeds (σ + ρ·in·w)·2^20 —
/// no floating-point ulp can leak packets past the envelope.
namespace envelope {

inline constexpr std::int64_t kTokenScale = std::int64_t{1} << 20;

/// ⌊value·2^20⌋ for non-negative finite values, saturating far below
/// int64 overflow so bucket arithmetic (cap + rate·elapsed) stays exact.
[[nodiscard]] std::int64_t to_units(double value);

}  // namespace envelope

class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;
  /// Packets injected at node v at step t.  `in_rate` is the node's in(v).
  virtual PacketCount packets(NodeId v, Cap in_rate, TimeStep t,
                              Rng& rng) = 0;

  /// Called exactly once per step, serially, before any packets() call of
  /// that step.  Default: nothing.
  virtual void begin_step(const ArrivalContext&) {}

  /// Sparse injection: a non-null return is the sorted, duplicate-free set
  /// of sources that may inject a nonzero count this step (a superset is
  /// legal), valid until the next begin_step.  The injection phase then
  /// visits only these nodes (plus fault-surging sources) instead of every
  /// source.  Default: nullptr — dense, every source is visited.
  [[nodiscard]] virtual const std::vector<NodeId>* active_sources() const {
    return nullptr;
  }

  /// Unused by liblgg; kept because perfbench's TracedArrival overrides it.
  [[nodiscard]] virtual bool parallel_safe() const { return false; }

  /// Telemetry hook, mirroring the other pluggable components: called when
  /// a telemetry session attaches (or when the process is installed into a
  /// session-carrying simulator).  Default: no metrics.
  virtual void register_metrics(obs::MetricRegistry&) {}

  /// Checkpoint hooks (core/checkpoint.hpp): serialize/restore cross-step
  /// internal state (e.g. TokenBucketArrival's token balances).  Default:
  /// stateless — most processes are pure functions of (v, in_rate, t, rng).
  virtual void save_state(std::ostream&) const {}
  virtual void load_state(std::istream&) {}
};

/// Exactly in(v) packets each step — the Section V-B premise.
class ExactArrival final : public ArrivalProcess {
 public:
  [[nodiscard]] std::string_view name() const override { return "exact"; }
  PacketCount packets(NodeId, Cap in_rate, TimeStep, Rng&) override {
    return in_rate;
  }
};

/// Deterministic long-run rate factor·in(v) via an error-accumulating
/// (Bresenham) counter: injections are ⌊(t+1)·f·in⌋ − ⌊t·f·in⌋.
/// factor <= 1 models a compliant sub-maximal source; factor > 1 models the
/// overload experiments (Theorem 1's divergence direction).
class ScaledArrival final : public ArrivalProcess {
 public:
  explicit ScaledArrival(double factor);
  [[nodiscard]] std::string_view name() const override { return "scaled"; }
  PacketCount packets(NodeId v, Cap in_rate, TimeStep t, Rng&) override;

 private:
  double factor_;
};

/// Binomial(in(v), p): each of the in(v) potential packets arrives
/// independently — a stochastic pseudo-source.
class BernoulliArrival final : public ArrivalProcess {
 public:
  explicit BernoulliArrival(double p);
  [[nodiscard]] std::string_view name() const override { return "bernoulli"; }
  PacketCount packets(NodeId, Cap in_rate, TimeStep, Rng& rng) override;

 private:
  double p_;
};

/// Uniform integer in [0, 2·mean_factor·in(v)] — mean = mean_factor·in(v).
/// Conjecture 3's uniform-distribution arrivals.
class UniformArrival final : public ArrivalProcess {
 public:
  explicit UniformArrival(double mean_factor);
  [[nodiscard]] std::string_view name() const override { return "uniform"; }
  PacketCount packets(NodeId, Cap in_rate, TimeStep, Rng& rng) override;

 private:
  double mean_factor_;
};

/// Poisson(mean_factor·in(v)) arrivals — the classical queueing-theory
/// stochastic source; used to probe whether Conjecture 3's threshold is
/// distribution-specific (it is not, empirically).
class PoissonArrival final : public ArrivalProcess {
 public:
  explicit PoissonArrival(double mean_factor);
  [[nodiscard]] std::string_view name() const override { return "poisson"; }
  PacketCount packets(NodeId, Cap in_rate, TimeStep, Rng& rng) override;

 private:
  double mean_factor_;
};

/// Geometric arrivals with mean mean_factor·in(v): P(k) = (1−p) p^k —
/// heavier-tailed than uniform; same stability threshold, larger plateaus.
class GeometricArrival final : public ArrivalProcess {
 public:
  explicit GeometricArrival(double mean_factor);
  [[nodiscard]] std::string_view name() const override { return "geometric"; }
  PacketCount packets(NodeId, Cap in_rate, TimeStep, Rng& rng) override;

 private:
  double mean_factor_;
};

/// Pareto (Lomax) heavy-tail arrivals with mean mean_factor·in(v) and tail
/// index alpha > 1: P(X > x) = (1 + x/scale)^-alpha.  The smaller alpha,
/// the fatter the tail — rare enormous batches on top of a compliant mean,
/// the "millions of users, one flash crowd" shape the stability frontier
/// is probed against.  Draws are clamped at 10^9 packets per (node, step)
/// so a single tail event cannot overflow the potential accumulators.
class ParetoArrival final : public ArrivalProcess {
 public:
  ParetoArrival(double alpha, double mean_factor);
  [[nodiscard]] std::string_view name() const override { return "pareto"; }
  PacketCount packets(NodeId, Cap in_rate, TimeStep, Rng& rng) override;

 private:
  double alpha_;
  double mean_factor_;
};

/// Deterministic diurnal rate modulation: the instantaneous rate is
/// mean_factor·in(v)·(1 + amp·sin(2πt/period)) — a day/night load curve.
/// Injections are the floor-difference of the closed-form cumulative
/// C(t) = mean·in·(t − amp·(period/2π)·(cos(2πt/period) − 1)), so the
/// process is stateless and exact over any horizon.
class DiurnalArrival final : public ArrivalProcess {
 public:
  /// mean_factor >= 0, amp in [0, 1] (rate never negative), period >= 1.
  DiurnalArrival(double mean_factor, double amp, TimeStep period);
  [[nodiscard]] std::string_view name() const override { return "diurnal"; }
  PacketCount packets(NodeId, Cap in_rate, TimeStep t, Rng&) override;

 private:
  [[nodiscard]] double cumulative(Cap in_rate, TimeStep t) const;
  double mean_factor_;
  double amp_;
  TimeStep period_;
};

/// Conjecture 2's burst pattern: `burst_len` steps at high·in(v) followed
/// by (period − burst_len) steps at low·in(v), repeating.
class BurstArrival final : public ArrivalProcess {
 public:
  BurstArrival(double high_factor, double low_factor, TimeStep burst_len,
               TimeStep period);
  [[nodiscard]] std::string_view name() const override { return "burst"; }
  PacketCount packets(NodeId v, Cap in_rate, TimeStep t, Rng&) override;

  [[nodiscard]] double average_factor() const;

 private:
  double high_;
  double low_;
  TimeStep burst_len_;
  TimeStep period_;
};

/// (ρ,σ) leaky bucket, the *smooth* admissible shape: every step each
/// source emits as many whole packets as its token bucket affords, with
/// refill ⌊ρ·in·2^20⌋ units per step capped at ⌊σ·2^20⌋ units, bucket
/// initially full (the σ burst fires up front, then the flow settles to
/// rate ρ·in).  Exact integer arithmetic (envelope::kTokenScale) makes the
/// admissibility bound A(s,t] ≤ ρ·in·(t−s) + σ provable without FP slack.
class LeakyBucketArrival final : public ArrivalProcess {
 public:
  /// rho >= 0, sigma >= 0, both finite.
  LeakyBucketArrival(double rho, double sigma);
  [[nodiscard]] std::string_view name() const override {
    return "leaky_bucket";
  }
  void begin_step(const ArrivalContext& ctx) override;
  PacketCount packets(NodeId v, Cap in_rate, TimeStep t, Rng&) override;

  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is) override;

  [[nodiscard]] double rho() const { return rho_; }
  [[nodiscard]] double sigma() const { return sigma_; }

 private:
  double rho_;
  double sigma_;
  /// Token units per node; kUnborrowed marks "never touched" = full bucket.
  std::vector<std::int64_t> bucket_;
};

/// Adversarial-queueing-style (r, b) token-bucket source (the setting of
/// the paper's reference [4]): over any interval of length w the adversary
/// may inject at most r·in(v)·w + b packets.  This implementation is the
/// worst bursty pattern inside that envelope — it hoards tokens for
/// `hoard_period` steps, then dumps the whole accumulated allowance at
/// once.  r < 1 keeps the long-run rate strictly feasible regardless of b.
class TokenBucketArrival final : public ArrivalProcess {
 public:
  /// r >= 0 (rate fraction of in(v)), burst cap b >= 0, hoard_period >= 1.
  TokenBucketArrival(double r, double burst_cap, TimeStep hoard_period);
  [[nodiscard]] std::string_view name() const override {
    return "token_bucket";
  }
  void begin_step(const ArrivalContext& ctx) override;
  PacketCount packets(NodeId v, Cap in_rate, TimeStep t, Rng&) override;

  // The token balances persist across steps, so they checkpoint.
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is) override;

 private:
  double r_;
  double burst_cap_;
  TimeStep hoard_period_;
  std::vector<double> tokens_;  // flat, indexed by NodeId; absent = 0
};

/// Replays a fixed per-node schedule; steps beyond the trace inject 0.
/// Used by the Conjecture-1 domination experiments, where one trajectory's
/// arrivals must pointwise dominate another's.
class TraceArrival final : public ArrivalProcess {
 public:
  explicit TraceArrival(std::map<NodeId, std::vector<PacketCount>> trace);
  [[nodiscard]] std::string_view name() const override { return "trace"; }
  PacketCount packets(NodeId v, Cap, TimeStep t, Rng&) override;

 private:
  std::map<NodeId, std::vector<PacketCount>> trace_;
};

}  // namespace lgg::core
