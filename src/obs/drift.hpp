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
// Forwarding is attributed per phase rather than per mutation.  Wipes,
// injections, losses and extractions are few per step and each one calls
// record().  Loss-apply's deliveries are many, so the simulator only
// stage()s their senders and receivers and adds the step's forwarding sum
// once (record_forwarding).  settle() then writes each touched node's
// forwarding row by telescoping from the post-injection queues: only
// loss-apply and extraction move a queue after that copy, so
//
//   forwarding(v) = q_{t+1}(v)² − q_t(v)² − loss(v) − extraction(v),
//
// which equals the sum of the node's forwarding terms modulo 2^64.  The
// same walk yields each node's total, so the hotspot feed rides on it.
//
// Invariant (enforced by tests/obs/drift_attribution_test.cpp, against a
// mutation-by-mutation replay): summed over all nodes — or equivalently
// over all causes — the contributions equal P_{t+1} − P_t exactly, every
// step, under faults, losses, interference, and every registered
// protocol.  Arithmetic is unsigned 64-bit internally (wraparound-safe),
// so the sums stay exact whenever the true values fit in int64 — far
// beyond any bounded run.
//
// Per-step storage is sparse.  A node's row counts only while the node is
// in this step's touched set (a TouchedSet, obs/touched_set.hpp, which
// yields the nodes in ascending id order without a sort), so begin_step
// zeroes just the rows record() wrote; settle() rewrites the forwarding
// row of every touched node.  The per-step cost scales with activity, not
// with n.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
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

  /// Clears the previous step's contributions (O(record calls +
  /// touched words + n/4096)).
  void begin_step();

  /// Adds one mutation's ΔP contribution for (node, cause).  `delta_p` is
  /// δ(2q+δ) computed by the caller in wraparound-safe arithmetic.
  void record(NodeId v, DriftCause cause, std::uint64_t delta_p) {
    const auto i = static_cast<std::size_t>(v);
    touched_.mark(i);
    recorded_.push_back(v);
    per_node_[i * kDriftCauseCount + static_cast<std::size_t>(cause)] +=
        delta_p;
    by_cause_step_[static_cast<std::size_t>(cause)] += delta_p;
    by_cause_total_[static_cast<std::size_t>(cause)] += delta_p;
  }

  /// Marks v touched without recording anything: loss-apply stages each
  /// sender and receiver of a delivered packet, whose forwarding rows
  /// settle() writes.  The mark is a TouchedSet::stage, so the node joins
  /// the touched set only at settle().
  void stage(NodeId v) { touched_.stage(static_cast<std::size_t>(v)); }

  /// Adds a whole phase's forwarding contribution to the step and run
  /// totals; the per-node rows follow in settle().
  void record_forwarding(std::uint64_t delta_p) {
    constexpr auto c = static_cast<std::size_t>(DriftCause::kForwarding);
    by_cause_step_[c] += delta_p;
    by_cause_total_[c] += delta_p;
  }

  /// Gathers the staged marks, then walks the touched nodes once, in
  /// ascending order: each one's forwarding row becomes
  /// queue(v)² − at_selection(v)² − loss(v) − extraction(v) in wrapping
  /// arithmetic, then f(v, node_drift(v), queue(v)) is called.
  /// `at_selection` holds the post-injection queues; both spans cover
  /// every node.  The row replaces any forwarding record()ed this step,
  /// and settling twice in one step writes the same rows.
  template <typename F>
  void settle(std::span<const PacketCount> queue,
              std::span<const PacketCount> at_selection, F&& f);
  /// settle() with no visitor, out of line: loss-apply's throw path.
  void settle(std::span<const PacketCount> queue,
              std::span<const PacketCount> at_selection);

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
  [[nodiscard]] std::int64_t node_drift(NodeId v) const {
    const auto i = static_cast<std::size_t>(v);
    if (!touched_.contains(i)) return 0;
    std::uint64_t total = 0;
    for (std::size_t c = 0; c < kDriftCauseCount; ++c) {
      total += per_node_[i * kDriftCauseCount + c];
    }
    return static_cast<std::int64_t>(total);
  }
  /// This step's contribution of (node, cause).
  [[nodiscard]] std::int64_t node_drift(NodeId v, DriftCause cause) const {
    const auto i = static_cast<std::size_t>(v);
    if (!touched_.contains(i)) return 0;
    return static_cast<std::int64_t>(
        per_node_[i * kDriftCauseCount + static_cast<std::size_t>(cause)]);
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
  std::vector<NodeId> recorded_;  // record() calls this step, by node
  NodeId node_count_ = 0;
  std::uint64_t by_cause_step_[kDriftCauseCount] = {};
  std::uint64_t by_cause_total_[kDriftCauseCount] = {};
};

template <typename F>
void DriftAttributor::settle(std::span<const PacketCount> queue,
                             std::span<const PacketCount> at_selection,
                             F&& f) {
  constexpr auto kInj = static_cast<std::size_t>(DriftCause::kInjection);
  constexpr auto kFwd = static_cast<std::size_t>(DriftCause::kForwarding);
  constexpr auto kLoss = static_cast<std::size_t>(DriftCause::kLoss);
  constexpr auto kExt = static_cast<std::size_t>(DriftCause::kExtraction);
  constexpr auto kWiped = static_cast<std::size_t>(DriftCause::kCrashWiped);
  touched_.gather();
  std::uint64_t* const rows = per_node_.data();
  const PacketCount* const now = queue.data();
  const PacketCount* const then = at_selection.data();
  touched_.for_each([&](NodeId v) {
    const auto i = static_cast<std::size_t>(v);
    std::uint64_t* const row = rows + i * kDriftCauseCount;
    const auto q1 = static_cast<std::uint64_t>(now[i]);
    const auto q0 = static_cast<std::uint64_t>(then[i]);
    const std::uint64_t late = q1 * q1 - q0 * q0;  // phases 7 and 8
    row[kFwd] = late - row[kLoss] - row[kExt];
    f(v, static_cast<std::int64_t>(row[kWiped] + row[kInj] + late), now[i]);
  });
}

}  // namespace lgg::obs
