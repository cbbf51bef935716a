#include "obs/registry.hpp"

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
        const Histogram::State& h = e.histogram->state();
        binio::write_u64(os, h.count);
        binio::write_f64(os, h.sum);
        binio::write_f64(os, h.min);
        binio::write_f64(os, h.max);
        for (const std::uint64_t b : h.buckets) binio::write_u64(os, b);
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
        Histogram::State h;
        h.count = binio::read_u64(is);
        h.sum = binio::read_f64(is);
        h.min = binio::read_f64(is);
        h.max = binio::read_f64(is);
        for (auto& b : h.buckets) b = binio::read_u64(is);
        e.histogram->set_state(h);
        break;
      }
    }
  }
}

}  // namespace lgg::obs
