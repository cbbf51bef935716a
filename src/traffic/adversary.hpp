// The adversarial traffic plane: a (ρ,σ)-bounded *adaptive* adversary.
//
// AdversarialArrival is an arrival process that is provably admissible —
// over every window of w steps, injections at source v never exceed
// ρ·in(v)·w + σ — while choosing *where* and *when* to spend that
// allowance as hostilely as it can.  Admissibility is enforced by exact
// integer token buckets (core/arrival.hpp envelope::kTokenScale): each
// source carries a bucket capped at ⌊σ·2^20⌋ units refilled ⌊ρ·in·2^20⌋
// units per step, and a burst dumps at most the bucket.  Telescoping the
// per-step bound A·2^20 ≤ b_s − b_t + rate·w ≤ cap + rate·w gives
// A ≤ σ + ρ·in·w with no floating-point slack — the oracle in
// tests/traffic/adversary_test.cpp checks exactly this over all windows.
//
// The adversary is *adaptive*: each step it reads the live simulator
// state (ArrivalContext — source list, queue snapshot, addressed RNG) in
// its serial begin_step hook, picks this step's targets, and precomputes
// their dump counts.  packets() is then a read-only lookup; and because
// only targeted sources can inject, it publishes a sparse active-source
// set — on a 10⁶-source topology the injection phase visits O(targets)
// nodes, not O(sources).
//
// Strategies:
//   * hoard-and-dump  — sit silent for period−1 steps, then dump the full
//     accumulated allowance of `fanout` sources at once, at an
//     RNG-chosen position in the source list (so seeds move the blast).
//   * rotating sweep  — every step, spend the allowance of the next
//     `fanout` sources in a deterministic rotation; the burst crawls
//     around the network, never letting one region drain.
//   * queue-aware     — every step, aim the allowance at the `fanout`
//     sources with the longest current queues: in-envelope bursts
//     concentrated on the currently hottest region.
//
// Lazy catch-up keeps the cost O(targets) per step: untouched buckets
// refill implicitly via b = min(cap, b + rate·elapsed), which equals the
// per-step iteration exactly (min is monotone), so sparse updates are
// order- and batching-independent.  The buckets, catch-up timestamps, and
// sweep cursor checkpoint (v7), making a mid-hoard resume bitwise
// identical to the uninterrupted run.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "core/arrival.hpp"

namespace lgg::obs {
class Gauge;
class MetricRegistry;
}  // namespace lgg::obs

namespace lgg::traffic {

enum class AdversaryStrategy : std::uint8_t {
  kHoardDump = 0,
  kRotatingSweep = 1,
  kQueueAware = 2,
};

[[nodiscard]] std::string_view to_string(AdversaryStrategy strategy);

struct AdversaryOptions {
  AdversaryStrategy strategy = AdversaryStrategy::kHoardDump;
  /// Long-run rate fraction of in(v); rho < 1 stays inside the feasible
  /// region, rho >= 1 probes the frontier.  Finite, >= 0.
  double rho = 0.9;
  /// Burst allowance in packets (the bucket cap).  Finite, >= 0.
  double sigma = 32.0;
  /// Hoard-and-dump cadence (a dump every `period` steps); ignored by the
  /// per-step strategies.  >= 1.
  TimeStep period = 16;
  /// Sources targeted per active step.  >= 1.
  std::uint32_t fanout = 64;
};

class AdversarialArrival final : public core::ArrivalProcess {
 public:
  /// Validates the options (ContractViolation on rho/sigma < 0 or
  /// non-finite, period < 1, fanout < 1).
  explicit AdversarialArrival(AdversaryOptions options);

  [[nodiscard]] std::string_view name() const override { return "adversary"; }

  void begin_step(const core::ArrivalContext& ctx) override;
  [[nodiscard]] const std::vector<NodeId>* active_sources() const override {
    return &active_;
  }
  PacketCount packets(NodeId v, Cap in_rate, TimeStep t, Rng& rng) override;

  /// adversary.active_sources — targets this step; adversary.
  /// envelope_headroom — unspent burst allowance (packets) summed over
  /// this step's targets after their dumps.
  void register_metrics(obs::MetricRegistry& registry) override;

  // Buckets, catch-up timestamps, and the sweep cursor persist across
  // steps, so they checkpoint (the dump table is rebuilt every
  // begin_step and does not).
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is) override;

  [[nodiscard]] const AdversaryOptions& options() const { return opt_; }

 private:
  /// Catches bucket v up through step t and dumps it into the plan.
  void dump_target(NodeId v, Cap in_rate, TimeStep t);
  void ensure_sized(std::size_t n);

  AdversaryOptions opt_;
  std::vector<std::int64_t> bucket_;  // token units; kFresh = full bucket
  std::vector<TimeStep> last_;        // step the bucket was refilled through
  std::uint64_t cursor_ = 0;          // rotating-sweep position

  // Rebuilt every begin_step.
  std::vector<NodeId> active_;                          // sorted targets
  std::vector<std::pair<NodeId, PacketCount>> planned_; // sorted dump table
  std::vector<std::pair<PacketCount, NodeId>> scratch_; // queue-aware sort
  std::int64_t headroom_units_ = 0;

  obs::Gauge* active_gauge_ = nullptr;
  obs::Gauge* headroom_gauge_ = nullptr;
};

}  // namespace lgg::traffic
