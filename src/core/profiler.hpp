// Per-phase timing for the simulation hot path.
//
// A StepProfiler attached to a Simulator (set_profiler) is the engines'
// only timing object.  Per step phase it accumulates wall time, CPU time
// summed over shards and a phase-specific work counter; built with a
// non-zero lane capacity it also keeps the most recent spans of every
// execution lane, exportable as a Chrome trace (`lgg_sim --trace-out`)
// that carries the whole-run totals beside the span window;
// `lgg_inspect stats` renders both.  Lane 0 is the main thread and lane
// s+1 is shard s; each lane has one writer, so shard workers record
// without locks.
//
// Each phase boundary is one call: a serial lap() adds its wall time to
// both columns of lane 0, a lap_parallel() adds the main thread's
// fan-out→join wall time to the wall column only, and each shard body
// adds its busy interval to the CPU column of its own lane (lap_shard).
// phase() sums the lanes.  Timing reads clocks only, so trajectories,
// telemetry bytes and checkpoints are bitwise identical with a profiler
// on or off (the ShardEquivalence suite pins this).  Rings are allocated
// when lanes are added, never on the hot path; a full ring overwrites its
// oldest span and counts it as dropped.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace lgg::core {

/// The eight phases of Simulator::step(), in execution order.  The values
/// address RNG streams, so they never change.
enum class StepPhase : std::uint8_t {
  kDynamics = 0,    ///< faults and churn decide which links are up
  kInjection,       ///< sources add packets
  kDeclaration,     ///< nodes declare queue lengths
  kSelection,       ///< the protocol proposes transmissions
  kScheduling,      ///< interference scheduling
  kConflict,        ///< link-conflict resolution
  kLossApply,       ///< losses decided + transmissions applied
  kExtraction,      ///< sinks remove packets
};

inline constexpr std::size_t kStepPhaseCount = 8;

[[nodiscard]] std::string_view to_string(StepPhase phase);

/// Accumulated cost of one phase across all profiled steps.  Serial phases
/// have cpu_nanos == nanos; a shard-parallel phase reports the main
/// thread's fan-out→join wall time (phases do not overlap, so the
/// per-phase walls still sum to the step wall) and the summed CPU time
/// across shards (which can legitimately exceed the wall — that excess is
/// the realized parallelism).
struct PhaseTotals {
  std::uint64_t nanos = 0;      ///< wall time, nanoseconds
  std::uint64_t cpu_nanos = 0;  ///< cpu time summed over shards
  std::uint64_t items = 0;      ///< phase-specific work counter
};

/// Shard field of spans recorded on the main thread (serial phases and
/// the fan-out→join laps).
inline constexpr std::uint16_t kSerialShard = 0xffff;

/// Dense process-wide index of the calling thread (assigned on first
/// use, stable for the thread's lifetime).  Used as the Chrome-trace tid
/// so per-thread rows stay small and readable.
[[nodiscard]] std::uint32_t current_thread_index();

struct SpanRecord {
  std::uint64_t step = 0;
  std::uint64_t t_start_nanos = 0;  ///< since the profiler's epoch
  std::uint64_t dur_nanos = 0;
  std::uint32_t tid = 0;  ///< current_thread_index() of the recorder
  StepPhase phase = StepPhase::kDynamics;
  std::uint16_t shard = kSerialShard;
};

/// One execution lane: per-phase totals plus a span ring of fixed
/// capacity.  Capacity 0 keeps totals only and records no spans.
class SpanLane {
 public:
  explicit SpanLane(std::size_t capacity) : ring_(capacity) {}

  void record(const SpanRecord& span) {
    if (ring_.empty()) return;
    ring_[next_] = span;
    next_ = next_ + 1 == ring_.size() ? 0 : next_ + 1;
    if (size_ < ring_.size()) {
      ++size_;
    } else {
      ++dropped_;
    }
  }

  [[nodiscard]] PhaseTotals& totals(StepPhase p) {
    return totals_[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] const PhaseTotals& totals(StepPhase p) const {
    return totals_[static_cast<std::size_t>(p)];
  }

  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }
  [[nodiscard]] std::size_t size() const { return size_; }
  /// Spans overwritten because the ring was full.
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// Oldest-to-newest copy of the ring.
  [[nodiscard]] std::vector<SpanRecord> spans() const;

  /// Zeroes the totals and empties the ring (capacity is kept).
  void clear();

 private:
  std::array<PhaseTotals, kStepPhaseCount> totals_{};
  std::vector<SpanRecord> ring_;
  std::size_t size_ = 0;
  std::size_t next_ = 0;  // overwrite cursor (== oldest once full)
  std::uint64_t dropped_ = 0;
};

class StepProfiler {
 public:
  using Clock = std::chrono::steady_clock;

  /// Keeps `lane_capacity` spans per lane; 0 keeps per-phase totals only.
  /// Nothing is allocated until the profiler is attached.
  explicit StepProfiler(std::size_t lane_capacity = 0);

  /// Grows the lane set to at least `lanes` (never shrinks).  Engines call
  /// this outside the parallel region — lane references must not be
  /// cached across an ensure_lanes call.
  void ensure_lanes(std::size_t lanes);

  /// Opens step `step`: its first phase starts at `now`.
  void begin_step(std::uint64_t step, Clock::time_point now = Clock::now()) {
    step_ = step;
    mark_ = now;
  }

  /// Closes a phase run on the main thread: the time since the previous
  /// boundary is both its wall and its CPU time.
  void lap(StepPhase phase, std::uint64_t items,
           Clock::time_point now = Clock::now()) {
    lanes_[0].totals(phase).cpu_nanos += lap_parallel(phase, items, now);
  }

  /// Closes a shard-parallel phase: the main thread's fan-out→join time is
  /// its wall time (returned); its CPU time comes from lap_shard calls.
  std::uint64_t lap_parallel(StepPhase phase, std::uint64_t items,
                             Clock::time_point now = Clock::now()) {
    const std::uint64_t wall = nanos_between(mark_, now);
    SpanLane& lane = lanes_[0];
    PhaseTotals& t = lane.totals(phase);
    t.nanos += wall;
    t.items += items;
    if (lane_capacity_ != 0) {
      lane.record({step_, since_epoch(mark_), wall, current_thread_index(),
                   phase, kSerialShard});
    }
    mark_ = now;
    return wall;
  }

  /// Records one shard body of `phase` that ran from `start` to `end` on
  /// lane shard+1.  Called from the worker running that shard.
  void lap_shard(std::size_t shard, StepPhase phase, Clock::time_point start,
                 Clock::time_point end = Clock::now()) {
    const std::uint64_t busy = nanos_between(start, end);
    SpanLane& lane = lanes_[shard + 1];
    lane.totals(phase).cpu_nanos += busy;
    if (lane_capacity_ != 0) {
      lane.record({step_, since_epoch(start), busy, current_thread_index(),
                   phase, static_cast<std::uint16_t>(shard)});
    }
  }

  /// Marks the end of one profiled step.
  void finish_step() { ++steps_; }

  /// Zeroes every total and empties every ring.
  void reset();

  [[nodiscard]] std::uint64_t steps() const { return steps_; }
  /// Totals of phase `p`, summed over the lanes.
  [[nodiscard]] PhaseTotals phase(StepPhase p) const;
  /// Σ over phases — the profiled portion of the step wall time.
  [[nodiscard]] std::uint64_t total_nanos() const;
  /// Σ over phases of shard CPU time (== total_nanos() for serial runs).
  [[nodiscard]] std::uint64_t total_cpu_nanos() const;
  /// Throughput over the profiled portion (0 before the first step).
  [[nodiscard]] double steps_per_second() const;

  /// Machine-readable summary (steps, steps/sec, per-phase nanos/items).
  [[nodiscard]] std::string json() const;

  [[nodiscard]] std::size_t lane_count() const { return lanes_.size(); }
  [[nodiscard]] SpanLane& lane(std::size_t i) { return lanes_[i]; }
  [[nodiscard]] const SpanLane& lane(std::size_t i) const {
    return lanes_[i];
  }
  /// Spans currently retained across all lanes.
  [[nodiscard]] std::size_t total_spans() const;
  /// Spans overwritten across all lanes.
  [[nodiscard]] std::uint64_t total_dropped() const;

  /// Writes the retained spans as Chrome trace-event JSON ("X" complete
  /// events named after their phase, ts/dur in microseconds), sorted by
  /// start time, with json() under otherData.profile so a wrapped ring
  /// still reports the whole run.  Returns the number of events written.
  std::size_t write_chrome_trace(std::ostream& os) const;

 private:
  [[nodiscard]] static std::uint64_t nanos_between(Clock::time_point a,
                                                   Clock::time_point b) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
  }
  /// Nanoseconds from the profiler's construction to `tp` (the axis span
  /// t_start values are expressed on).
  [[nodiscard]] std::uint64_t since_epoch(Clock::time_point tp) const {
    return nanos_between(epoch_, tp);
  }

  std::size_t lane_capacity_;
  Clock::time_point epoch_;
  std::vector<SpanLane> lanes_;
  std::uint64_t steps_ = 0;
  // Main-thread lap state: the current step and the last phase boundary.
  std::uint64_t step_ = 0;
  Clock::time_point mark_{};
};

}  // namespace lgg::core
