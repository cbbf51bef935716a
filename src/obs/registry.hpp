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

  void observe(double value);
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const {
    return buckets_[i];
  }
  void reset();

 private:
  friend class MetricRegistry;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::uint64_t buckets_[kBuckets] = {};
};

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
