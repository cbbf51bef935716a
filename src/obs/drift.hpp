// Per-node attribution of the potential drift ΔP_t = P_{t+1} − P_t.
//
// The paper's stability argument is a statement about P_t = Σ_v q_t(v)²
// (Definition 1): Property 1 bounds its per-step growth by 5nΔ², and
// Property 2 forces drift below −5nΔ² once P_t > nY².  This module makes
// the drift *inspectable*: every queue mutation the simulator performs
// contributes δ(2q+δ) to ΔP_t (for a queue moving q → q+δ), and the
// attributor accumulates those contributions per node and per cause —
// injection, forwarding, loss, extraction, crash_wiped — mirroring how
// Dieker & Shin decompose a global Lyapunov drift into per-node terms.
//
// Invariant (enforced by tests/obs/drift_attribution_test.cpp): summed
// over all nodes — or equivalently over all causes — the recorded
// contributions equal P_{t+1} − P_t exactly, every step, under faults,
// losses, interference, and every registered protocol.  Arithmetic is
// unsigned 64-bit internally (wraparound-safe), so the sums stay exact
// whenever the true values fit in int64 — far beyond any bounded run.
//
// Per-step storage is sparse: only nodes touched this step are reset on
// the next begin_step, so the cost scales with activity, not with n.  The
// touched set is a TouchedSet (obs/touched_set.hpp), which yields the
// nodes in ascending id order without a sort.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "obs/touched_set.hpp"

namespace lgg::obs {

class JsonWriter;

/// Why a queue changed.  Forwarding covers both the −1 at the sender and
/// the +1 at the receiver of a delivered packet; a lost packet's sender
/// decrement is attributed to kLoss instead (the packet left the network).
enum class DriftCause : std::uint8_t {
  kInjection = 0,   ///< source arrivals, including fault-injected surges
  kForwarding,      ///< delivered transmissions (sender − and receiver +)
  kLoss,            ///< sender decrement of a transmission the loss model ate
  kExtraction,      ///< sink removals
  kCrashWiped,      ///< queues destroyed by wipe-mode node crashes
};

inline constexpr std::size_t kDriftCauseCount = 5;

[[nodiscard]] std::string_view to_string(DriftCause cause);

class DriftAttributor {
 public:
  /// Sizes the per-node tables; `node_count` must match the simulator.
  void bind(NodeId node_count);

  [[nodiscard]] NodeId node_count() const { return node_count_; }

  /// Clears the previous step's sparse contributions
  /// (O(nodes touched + n/4096)).
  void begin_step();

  /// Adds one mutation's ΔP contribution for (node, cause).  `delta_p` is
  /// δ(2q+δ) computed by the caller in wraparound-safe arithmetic.
  void record(NodeId v, DriftCause cause, std::uint64_t delta_p) {
    const auto i = static_cast<std::size_t>(v);
    touched_.mark(i);
    per_node_[i * kDriftCauseCount + static_cast<std::size_t>(cause)] +=
        delta_p;
    by_cause_step_[static_cast<std::size_t>(cause)] += delta_p;
    by_cause_total_[static_cast<std::size_t>(cause)] += delta_p;
  }

  /// ΔP_t of the current step (sum over all causes), exact as int64.
  [[nodiscard]] std::int64_t step_drift() const;
  /// This step's contribution of one cause.
  [[nodiscard]] std::int64_t step_drift(DriftCause cause) const {
    return static_cast<std::int64_t>(
        by_cause_step_[static_cast<std::size_t>(cause)]);
  }
  /// Run-cumulative contribution of one cause.
  [[nodiscard]] std::int64_t total_drift(DriftCause cause) const {
    return static_cast<std::int64_t>(
        by_cause_total_[static_cast<std::size_t>(cause)]);
  }
  /// This step's total contribution of one node (sum over causes).
  /// Inline: the hotspot feed calls it once per touched node per step.
  [[nodiscard]] std::int64_t node_drift(NodeId v) const {
    const std::uint64_t* causes =
        &per_node_[static_cast<std::size_t>(v) * kDriftCauseCount];
    std::uint64_t total = 0;
    for (std::size_t c = 0; c < kDriftCauseCount; ++c) total += causes[c];
    return static_cast<std::int64_t>(total);
  }
  /// This step's contribution of (node, cause).
  [[nodiscard]] std::int64_t node_drift(NodeId v, DriftCause cause) const {
    return static_cast<std::int64_t>(
        per_node_[static_cast<std::size_t>(v) * kDriftCauseCount +
                  static_cast<std::size_t>(cause)]);
  }
  /// Calls f(v) for every node with at least one recorded mutation this
  /// step, in ascending id order; O(nodes touched + n/4096).
  template <typename F>
  void for_each_touched(F&& f) const {
    touched_.for_each(f);
  }

  /// Emits the "drift" object into the writer's current object:
  /// {dP, by_cause:{...}, cumulative_by_cause:{...},
  ///  per_node:[{v,dP,<cause>:...},...]} with per_node sorted by id and
  /// zero-contribution causes omitted.
  void write_snapshot(JsonWriter& json) const;

  /// Checkpoint support for the run-cumulative totals (the per-step state
  /// is rebuilt by the next step).  load_state throws std::runtime_error
  /// on a size mismatch.
  void save_state(std::ostream& os) const;
  void load_state(std::istream& is);

 private:
  std::vector<std::uint64_t> per_node_;  // node-major, kDriftCauseCount wide
  TouchedSet touched_;
  NodeId node_count_ = 0;
  std::uint64_t by_cause_step_[kDriftCauseCount] = {};
  std::uint64_t by_cause_total_[kDriftCauseCount] = {};
};

}  // namespace lgg::obs
