#include "obs/registry.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/binio.hpp"
#include "common/require.hpp"
#include "obs/json.hpp"

namespace lgg::obs {

std::string_view to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

void Histogram::observe(double value) {
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    if (value < min_) min_ = value;
    if (value > max_) max_ = value;
  }
  ++count_;
  sum_ += value;
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
  ++buckets_[bucket];
}

void Histogram::reset() {
  count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
  for (auto& b : buckets_) b = 0;
}

MetricRegistry::Entry& MetricRegistry::find_or_create(std::string_view name,
                                                      MetricKind kind) {
  LGG_REQUIRE(!name.empty(), "MetricRegistry: empty metric name");
  const auto it = index_.find(std::string(name));
  if (it != index_.end()) {
    Entry& entry = entries_[it->second];
    LGG_REQUIRE(entry.kind == kind,
                "MetricRegistry: '" + entry.name + "' already registered as " +
                    std::string(to_string(entry.kind)) + ", requested as " +
                    std::string(to_string(kind)));
    return entry;
  }
  Entry entry;
  entry.name = std::string(name);
  entry.kind = kind;
  switch (kind) {
    case MetricKind::kCounter:
      entry.counter = std::make_unique<Counter>();
      break;
    case MetricKind::kGauge:
      entry.gauge = std::make_unique<Gauge>();
      break;
    case MetricKind::kHistogram:
      entry.histogram = std::make_unique<Histogram>();
      break;
  }
  index_.emplace(entry.name, entries_.size());
  entries_.push_back(std::move(entry));
  return entries_.back();
}

Counter& MetricRegistry::counter(std::string_view name) {
  return *find_or_create(name, MetricKind::kCounter).counter;
}

Gauge& MetricRegistry::gauge(std::string_view name) {
  return *find_or_create(name, MetricKind::kGauge).gauge;
}

Histogram& MetricRegistry::histogram(std::string_view name) {
  return *find_or_create(name, MetricKind::kHistogram).histogram;
}

void MetricRegistry::write_snapshot(JsonWriter& json) const {
  json.begin_object("counters");
  for (const Entry& e : entries_) {
    if (e.kind == MetricKind::kCounter) {
      json.field(e.name, e.counter->value());
    }
  }
  json.end_object();
  json.begin_object("gauges");
  for (const Entry& e : entries_) {
    if (e.kind == MetricKind::kGauge) {
      json.field(e.name, e.gauge->value());
    }
  }
  json.end_object();
  json.begin_object("histograms");
  for (const Entry& e : entries_) {
    if (e.kind != MetricKind::kHistogram) continue;
    const Histogram& h = *e.histogram;
    json.begin_object(e.name);
    json.field("count", h.count());
    json.field("sum", h.sum());
    json.field("min", h.min());
    json.field("max", h.max());
    json.begin_array("buckets");
    for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
      if (h.bucket(i) == 0) continue;
      json.begin_object();
      // Upper bound of bucket i: 0 for i == 0, 2^(i-1) otherwise; the
      // last bucket is unbounded.
      if (i + 1 == Histogram::kBuckets) {
        json.field("le", "inf");
      } else {
        json.field("le", i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i) - 1));
      }
      json.field("n", h.bucket(i));
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_object();
}

void MetricRegistry::for_each(const MetricVisitor& visit) const {
  for (const Entry& e : entries_) {
    visit(e.name, e.kind, e.counter.get(), e.gauge.get(),
          e.histogram.get());
  }
}

void MetricRegistry::save_state(std::ostream& os) const {
  binio::write_u32(os, static_cast<std::uint32_t>(entries_.size()));
  for (const Entry& e : entries_) {
    binio::write_string(os, e.name);
    binio::write_u8(os, static_cast<std::uint8_t>(e.kind));
    switch (e.kind) {
      case MetricKind::kCounter:
        binio::write_u64(os, e.counter->value());
        break;
      case MetricKind::kGauge:
        binio::write_f64(os, e.gauge->value());
        break;
      case MetricKind::kHistogram: {
        const Histogram& h = *e.histogram;
        binio::write_u64(os, h.count_);
        binio::write_f64(os, h.sum_);
        binio::write_f64(os, h.min_);
        binio::write_f64(os, h.max_);
        for (const std::uint64_t b : h.buckets_) binio::write_u64(os, b);
        break;
      }
    }
  }
}

void MetricRegistry::load_state(std::istream& is) {
  const std::uint32_t count = binio::read_u32(is);
  if (count != entries_.size()) {
    throw std::runtime_error(
        "MetricRegistry: checkpoint has " + std::to_string(count) +
        " metrics, registry has " + std::to_string(entries_.size()) +
        " (register the same components before restoring)");
  }
  for (Entry& e : entries_) {
    const std::string name = binio::read_string(is);
    const auto kind = static_cast<MetricKind>(binio::read_u8(is));
    if (name != e.name || kind != e.kind) {
      throw std::runtime_error("MetricRegistry: checkpoint metric '" + name +
                               "' does not match registered '" + e.name +
                               "'");
    }
    switch (e.kind) {
      case MetricKind::kCounter: {
        e.counter->reset();
        e.counter->add(binio::read_u64(is));
        break;
      }
      case MetricKind::kGauge:
        e.gauge->set(binio::read_f64(is));
        break;
      case MetricKind::kHistogram: {
        Histogram& h = *e.histogram;
        h.count_ = binio::read_u64(is);
        h.sum_ = binio::read_f64(is);
        h.min_ = binio::read_f64(is);
        h.max_ = binio::read_f64(is);
        for (auto& b : h.buckets_) b = binio::read_u64(is);
        break;
      }
    }
  }
}

}  // namespace lgg::obs
