// Hotspot analytics: which nodes are dragging P_t = Σq² upward.
//
// The paper's stability argument is entirely about drift concentration
// (Property 1 / Lemma 1), and the Dieker–Shin quadratic-Lyapunov framing
// makes the per-node drift share the decisive diagnostic: a few nodes
// accumulating positive δ(2q+δ) contributions predict instability long
// before a global threshold fires.  At production scale an O(n) scan per
// step is off the table, so this module keeps two Space-Saving top-K
// sketches (Metwally et al., "Efficient computation of frequent and
// top-k elements in data streams"):
//
//   * drift  — weighted by each touched node's positive per-step ΔP
//              contribution (the exact value the DriftAttributor settles
//              at the end of the step);
//   * queue  — weighted by each touched node's post-step queue length
//              (time-integrated occupancy over its active steps);
//
// plus a log2 queue-occupancy histogram registered as
// "sim.queue_occupancy".
//
// The sketches are fed once per snapshot window, not once per step.  Each
// step adds every touched node's two weights to dense per-node window sums
// (u64, wrapping like the sketch counters) and marks the node in a
// TouchedSet; that is O(touched) with no sketch work.  The per-step feed
// (Feed) rides on the drift attributor's settle walk, so one ascending
// pass over the touched nodes settles their drift and feeds both the
// window and the occupancy histogram, whose state the feed keeps in a
// local until the step's last node.  When the window closes, each sketch
// gets one update(v, window sum) per window-touched node in ascending id,
// skipping zero sums: O(window-touched · log K).
// The sketch therefore sees every node's exact per-window total, just
// pre-aggregated, so the Space-Saving guarantees below hold unchanged and
// drift_total/queue_total equal the per-step feed's; only the eviction
// history differs.  A one-step window is exactly the per-step feed.
// Updates allocate nothing: a dense key index finds a monitored key in
// O(1), and a min-heap over the K counters keeps the eviction victim at
// its root — never a scan over n or over K.  Feeding follows the exact
// touched set in ascending node order, which the shard engine reproduces
// bit-for-bit, so sketch state — and therefore every emitted "hotspots"
// JSONL line — is deterministic across shard and thread counts.
//
// Space-Saving guarantee (tests/obs/hotspots_test.cpp): for every
// reported entry, true_weight <= weight and weight - error <=
// true_weight; any key whose true weight exceeds total_weight / K is
// present in the sketch.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "obs/registry.hpp"
#include "obs/touched_set.hpp"

namespace lgg::obs {

class JsonWriter;

/// Deterministic weighted Space-Saving sketch over the keys
/// [0, key_count).
class SpaceSaving {
 public:
  struct Entry {
    std::uint64_t key = 0;
    std::uint64_t weight = 0;  ///< over-estimate of the key's true weight
    std::uint64_t error = 0;   ///< weight - error <= true weight
  };

  /// `k` is the number of monitored counters (>= 1); keys must be below
  /// `key_count` (see bind).
  explicit SpaceSaving(std::size_t k, std::size_t key_count = 0);

  [[nodiscard]] std::size_t k() const { return k_; }
  [[nodiscard]] std::uint64_t total_weight() const { return total_; }

  /// Sizes the dense key index for keys [0, key_count).  Monitored
  /// entries are kept; throws std::runtime_error if one is out of range.
  void bind(std::size_t key_count);

  /// O(log K), allocation-free: an index lookup finds a monitored key,
  /// and the heap root is the eviction victim — the minimum (weight, key)
  /// counter.  Throws ContractViolation unless key < key_count.
  void update(std::uint64_t key, std::uint64_t weight);

  /// Monitored entries sorted by weight descending, key ascending on
  /// ties — the monotonic order the telemetry checker validates.
  [[nodiscard]] std::vector<Entry> top() const;

  void clear();

  /// Checkpoint support: entries in slot order plus the total.
  /// load_state throws std::runtime_error when the saved k differs, or
  /// when a key repeats or is not below key_count; the sketch is left
  /// unchanged then.
  void save_state(std::ostream& os) const;
  void load_state(std::istream& is);

 private:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  /// Heap order: the counter with the smaller (weight, key) is nearer
  /// the root.  Keys are unique, so the order is total and the root is
  /// exactly the counter a linear minimum scan would pick.
  [[nodiscard]] bool before(std::uint32_t a, std::uint32_t b) const {
    const Entry& x = entries_[a];
    const Entry& y = entries_[b];
    return x.weight < y.weight || (x.weight == y.weight && x.key < y.key);
  }
  /// Moves the slot at heap position `pos` to where it belongs.
  void sift(std::size_t pos);
  void place(std::size_t pos, std::uint32_t slot) {
    heap_[pos] = slot;
    heap_pos_[slot] = static_cast<std::uint32_t>(pos);
  }
  /// Rebuilds slot_of_, heap_ and heap_pos_ from entries_.
  void reindex();

  std::size_t k_;
  std::uint64_t total_ = 0;
  std::vector<Entry> entries_;           // slot order (checkpointed)
  std::vector<std::uint32_t> slot_of_;   // key -> slot, kNoSlot if absent
  std::vector<std::uint32_t> heap_;      // min-heap of slots
  std::vector<std::uint32_t> heap_pos_;  // slot -> position in heap_
};

/// The per-run hotspot state a Telemetry session owns when hotspot_k is
/// configured.  Fed every step from the drift attributor's touched set,
/// folded into the sketches when a snapshot window closes, and emitted as
/// a {"type":"hotspots"} JSONL line per snapshot and as a run-end summary
/// table.
class HotspotTracker {
 public:
  /// Registers the "sim.queue_occupancy" histogram into `registry`.
  HotspotTracker(std::size_t k, MetricRegistry& registry);

  [[nodiscard]] std::size_t k() const { return drift_.k(); }
  /// The sketches as of the last close_window.
  [[nodiscard]] const SpaceSaving& drift_sketch() const { return drift_; }
  [[nodiscard]] const SpaceSaving& queue_sketch() const { return queue_; }

  /// Sizes both sketches and the window for node ids [0, node_count) and
  /// empties the window.
  void bind(NodeId node_count);

  /// One step's observations.  The occupancy histogram's state lives in
  /// the feed and the window marks are staged until finish(), so a step's
  /// run of observe calls keeps both out of memory.
  class Feed {
   public:
    /// One touched node's end-of-step observation: `drift` is the node's
    /// signed ΔP contribution this step, `queue` its post-step length
    /// (>= 0).  Adds the positive drift and the queue to the node's window
    /// sums, without branching on either, and the queue to the occupancy
    /// histogram; the sketches are untouched until close_window.
    void observe(NodeId v, std::int64_t drift, PacketCount queue) {
      const auto i = static_cast<std::size_t>(v);
      drift_sums_[i] += drift > 0 ? static_cast<std::uint64_t>(drift) : 0;
      queue_sums_[i] += static_cast<std::uint64_t>(queue);
      window_->stage(i);
      occupancy_.observe(static_cast<double>(queue));
    }
    /// Gathers the window marks and writes the occupancy histogram back;
    /// call once, after the step's last observe and before anything else
    /// reads the tracker.
    void finish() {
      window_->gather();
      target_->set_state(occupancy_);
    }

   private:
    friend class HotspotTracker;
    explicit Feed(HotspotTracker& tracker)
        : drift_sums_(tracker.window_drift_.data()),
          queue_sums_(tracker.window_queue_.data()),
          window_(&tracker.window_),
          target_(tracker.occupancy_),
          occupancy_(tracker.occupancy_->state()) {}

    std::uint64_t* drift_sums_;
    std::uint64_t* queue_sums_;
    TouchedSet* window_;
    Histogram* target_;
    Histogram::State occupancy_;
  };

  /// Opens the feed of one step.
  [[nodiscard]] Feed feed() { return Feed(*this); }

  /// Feeds each window-touched node's non-zero sums to the sketches in
  /// ascending id, then empties the window.
  void close_window();

  /// Emits {"type":"hotspots","seq":...,"t":...,"k":...,"drift":[...],
  /// "queue":[...]} into `json` (a fresh top-level document).
  void write_snapshot(JsonWriter& json, std::uint64_t seq, TimeStep t) const;

  /// Human-readable run-end table of both top-K lists, with the pending
  /// window folded into copies of the sketches (the live sketches, and so
  /// the stream, are never changed by reading).
  [[nodiscard]] std::string summary_table() const;

  /// Checkpoint support: the pending window (entry count, then strictly
  /// ascending (node, drift sum, queue sum) triples), then both sketches.
  /// The histogram is a registry metric and rides the registry's own
  /// state.  load_state throws std::runtime_error on a node outside the
  /// bound range, nodes out of order, a count above the node count, or a
  /// bad sketch, and leaves the tracker unchanged then.
  void save_state(std::ostream& os) const;
  void load_state(std::istream& is);

 private:
  /// Feeds the window sums into `drift` and `queue`.
  void fold_window(SpaceSaving& drift, SpaceSaving& queue) const;

  SpaceSaving drift_;
  SpaceSaving queue_;
  std::vector<std::uint64_t> window_drift_;  // per node, this window
  std::vector<std::uint64_t> window_queue_;
  TouchedSet window_;  // nodes observed this window
  Histogram* occupancy_;  // owned by the registry
};

}  // namespace lgg::obs
