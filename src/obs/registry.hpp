// Named metric registry: counters, gauges, and log2 histograms.
//
// The registry is the rendezvous point between instrumented components
// (simulator, fault injector, schedulers, protocols) and telemetry
// sinks.  The cost discipline follows core::StepProfiler: a component
// holds a raw handle pointer that stays nullptr until register_metrics is
// called, so an un-instrumented run pays one branch per would-be update
// and nothing else.  A registered update is a single add/store — no
// locks, no lookups, no allocation (handles are stable; metrics are
// never removed).
//
// Names are unique per registry.  Requesting an existing name returns
// the existing handle; requesting it with a different kind throws, so a
// typo'd re-registration fails loudly instead of silently forking a
// metric.  Registration order is preserved — snapshots list metrics in
// the order they were first registered, which keeps JSONL output stable
// across runs and resumes.
//
// Not thread-safe: one registry belongs to one simulator, like the
// profiler and observer hooks.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace lgg::obs {

class JsonWriter;

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

[[nodiscard]] std::string_view to_string(MetricKind kind);

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t delta = 1) { value_ += delta; }
  [[nodiscard]] std::uint64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double value) { value_ = value; }
  [[nodiscard]] double value() const { return value_; }
  void reset() { value_ = 0.0; }

 private:
  double value_ = 0.0;
};

/// Power-of-two-bucketed distribution of non-negative samples.  Bucket i
/// counts samples with value <= 2^(i-1) (bucket 0: value <= 0); the last
/// bucket is unbounded.  Negative samples clamp into bucket 0.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 48;

  /// Everything a histogram holds.  A batched feed copies it into a local,
  /// observes into the copy and writes it back once with set_state, so
  /// count, sum, min and max stay out of memory for the whole batch; the
  /// double operations run in the order per-value observe calls would run
  /// them, so the result is bit-identical.
  struct State {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::uint64_t buckets[kBuckets] = {};

    void observe(double value);
  };

  void observe(double value) { state_.observe(value); }
  [[nodiscard]] std::uint64_t count() const { return state_.count; }
  [[nodiscard]] double sum() const { return state_.sum; }
  [[nodiscard]] double min() const { return state_.min; }
  [[nodiscard]] double max() const { return state_.max; }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const {
    return state_.buckets[i];
  }
  [[nodiscard]] const State& state() const { return state_; }
  void set_state(const State& state) { state_ = state; }
  void reset() { state_ = State{}; }

 private:
  State state_;
};

inline void Histogram::State::observe(double value) {
  if (count == 0) {
    min = value;
    max = value;
  } else {
    if (value < min) min = value;
    if (value > max) max = value;
  }
  ++count;
  sum += value;
  std::size_t bucket = 0;
  if (value > 0.0) {
    // Bucket i covers (2^(i-2), 2^(i-1)]: ceil of log2, offset by one for
    // the value <= 0 bucket.  Read off the bits: a positive double is
    // 2^(e-1023) · 1.m, so ceil(log2) is e - 1023, plus one unless the
    // mantissa is zero.  Subnormals (e = 0) and +inf (e = 2047) land in
    // the first and last bucket through the clamp, as ilogb would put them.
    const auto bits = std::bit_cast<std::uint64_t>(value);
    const auto biased = static_cast<long>(bits >> 52);
    const long mantissa_nonzero = (bits & ((std::uint64_t{1} << 52) - 1)) != 0;
    const long ceil_log2 = biased - 1023 + mantissa_nonzero;
    bucket = static_cast<std::size_t>(
        std::clamp(ceil_log2 + 1, 1L, static_cast<long>(kBuckets - 1)));
  }
  ++buckets[bucket];
}

class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Idempotent: the same name always yields the same handle.  Throws
  /// ContractViolation when `name` exists with a different kind.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Emits three keyed objects — "counters", "gauges", "histograms" —
  /// into the writer's current object, metrics in registration order.
  /// Histograms render as {count,sum,min,max,buckets:[{le,n},...]} with
  /// zero buckets omitted.
  void write_snapshot(JsonWriter& json) const;

  /// Visits every metric in registration order (exactly one of the three
  /// handle pointers is non-null per call).  Exists for renderers that
  /// need a different output shape than write_snapshot — the Prometheus
  /// statusz exposition (obs/expose.hpp) is the canonical consumer.
  using MetricVisitor =
      std::function<void(std::string_view name, MetricKind kind,
                         const Counter* counter, const Gauge* gauge,
                         const Histogram* histogram)>;
  void for_each(const MetricVisitor& visit) const;

  /// Checkpoint support: values only, in registration order.  load_state
  /// requires the same metrics registered in the same order (names and
  /// kinds are verified) and throws std::runtime_error on mismatch.
  void save_state(std::ostream& os) const;
  void load_state(std::istream& is);

 private:
  struct Entry {
    std::string name;
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& find_or_create(std::string_view name, MetricKind kind);

  std::vector<Entry> entries_;
  std::unordered_map<std::string, std::size_t> index_;
};

}  // namespace lgg::obs
