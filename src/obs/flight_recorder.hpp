// Event flight recorder: a fixed-size ring buffer of structured step
// events, dumped when something goes wrong.
//
// A million-step supervised run cannot log every send, but when it
// diverges or crashes the *recent* history is exactly what a post-mortem
// needs.  The recorder keeps the last `capacity` events — packet sends,
// losses, scheduler/conflict drops, fault transitions, checkpoint
// writes, snapshot emissions — overwriting the oldest, and dumps them as
// JSONL ({"type":"event",...} lines) on demand.  analysis::RunSupervisor
// dumps it alongside its crash artifacts; `lgg_sim --flight-recorder N`
// appends the dump to the telemetry stream at the end of a run.
//
// Every event carries a global sequence number (total events ever
// recorded), so a dump shows both what happened and how much history the
// ring has already shed.  The ring contents and the sequence number are
// part of the telemetry checkpoint state: a resumed run records and
// dumps the same bytes an uninterrupted one would.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace lgg::obs {

enum class EventKind : std::uint8_t {
  kSend = 0,     ///< kept, delivered transmission: a=from, b=to, value=edge
  kLoss,         ///< kept transmission eaten by the loss model (same fields)
  kDrop,         ///< suppressed by scheduling or link conflict (same fields)
  kNodeDown,     ///< fault transition: a=node, value=wiped packet count
  kNodeUp,       ///< fault recovery: a=node
  kCheckpoint,   ///< checkpoint written at step t
  kSnapshot,     ///< telemetry snapshot emitted: value=sequence number
  kGovernorMode, ///< admission governor mode transition: value=new mode
                 ///< (control::SaturationMode as an integer)
  // Topology churn (core/faults.hpp churn events):
  kEdgeDown,     ///< churn removed an edge: a=u, b=v, value=edge id
  kEdgeUp,       ///< churn restored an edge: a=u, b=v, value=edge id
  kNodeLeave,    ///< node departed: a=node, value=wiped packet count
  kNodeJoin,     ///< node re-entered: a=node
  kRateChange,   ///< spec changed: a=node, value=(in << 32) | (out & 0xffffffff)
                 ///< (rates are < 2^31 in every supported instance)
  kRecovery,     ///< supervisor rolled back to a checkpoint generation:
                 ///< value=generation restored.  Recorded *before* the
                 ///< restore, so the restored ring wipes it and the durable
                 ///< event stream stays identical to an uninterrupted run;
                 ///< it surfaces only in crash dumps of the failed attempt.
};

inline constexpr std::size_t kEventKindCount = 14;

[[nodiscard]] std::string_view to_string(EventKind kind);

struct FlightEvent {
  TimeStep t = 0;
  EventKind kind = EventKind::kSend;
  NodeId a = kInvalidNode;
  NodeId b = kInvalidNode;
  std::int64_t value = 0;

  friend bool operator==(const FlightEvent&, const FlightEvent&) = default;
};

class FlightRecorder {
 public:
  /// A zero-capacity recorder drops everything (record is a no-op).
  explicit FlightRecorder(std::size_t capacity) : capacity_(capacity) {
    ring_.reserve(capacity);
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Events currently held (<= capacity).
  [[nodiscard]] std::size_t size() const { return ring_.size(); }
  /// Total events ever recorded, including overwritten ones.
  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }

  void record(const FlightEvent& event) {
    if (capacity_ == 0) return;
    if (ring_.size() < capacity_) {
      ring_.push_back(event);
    } else {
      ring_[next_] = event;
      if (++next_ == capacity_) next_ = 0;
    }
    ++recorded_;
  }

  /// Records make(0), ..., make(count - 1) in that order, with the same
  /// observable result as `count` record calls — but builds only the
  /// events that survive in the ring: once count exceeds the capacity,
  /// the first count - capacity events would be overwritten within this
  /// batch, so they are counted and never made.  `make` must be pure.
  template <typename Make>
  void record_batch(std::size_t count, Make&& make) {
    if (capacity_ == 0) return;
    const std::size_t skip = count > capacity_ ? count - capacity_ : 0;
    recorded_ += skip;
    for (std::size_t i = skip; i < count; ++i) record(make(i));
  }

  /// Oldest-to-newest copy of the ring.
  [[nodiscard]] std::vector<FlightEvent> events() const;

  /// Dumps the ring as JSONL event lines, oldest first, each
  /// {"type":"event","seq":...,"t":...,"kind":"...",...} with unused
  /// node fields omitted.  Returns the number of lines written.
  std::size_t dump(std::ostream& os) const;

  void clear() {
    ring_.clear();
    next_ = 0;
    recorded_ = 0;
  }

  /// Checkpoint support.  load_state throws std::runtime_error when the
  /// saved capacity differs from this recorder's.
  void save_state(std::ostream& os) const;
  void load_state(std::istream& is);

 private:
  std::size_t capacity_;
  std::vector<FlightEvent> ring_;
  std::size_t next_ = 0;        // overwrite cursor once the ring is full
  std::uint64_t recorded_ = 0;  // global sequence; seq of ring_[i] is
                                // recorded_ - size + (logical index)
};

}  // namespace lgg::obs
