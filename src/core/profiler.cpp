#include "core/profiler.hpp"

#include <algorithm>
#include <atomic>
#include <ostream>

#include "obs/json.hpp"

namespace lgg::core {

std::string_view to_string(StepPhase phase) {
  switch (phase) {
    case StepPhase::kDynamics: return "dynamics";
    case StepPhase::kInjection: return "injection";
    case StepPhase::kDeclaration: return "declaration";
    case StepPhase::kSelection: return "selection";
    case StepPhase::kScheduling: return "scheduling";
    case StepPhase::kConflict: return "conflict";
    case StepPhase::kLossApply: return "loss-apply";
    case StepPhase::kExtraction: return "extraction";
  }
  return "unknown";
}

std::uint32_t current_thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index =
      next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

std::vector<SpanRecord> SpanLane::spans() const {
  std::vector<SpanRecord> out;
  out.reserve(size_);
  if (size_ < ring_.size()) {
    out.assign(ring_.begin(),
               ring_.begin() + static_cast<std::ptrdiff_t>(size_));
  } else {
    // Full ring: next_ is the oldest slot.
    out.insert(out.end(),
               ring_.begin() + static_cast<std::ptrdiff_t>(next_),
               ring_.end());
    out.insert(out.end(), ring_.begin(),
               ring_.begin() + static_cast<std::ptrdiff_t>(next_));
  }
  return out;
}

void SpanLane::clear() {
  totals_.fill(PhaseTotals{});
  size_ = 0;
  next_ = 0;
  dropped_ = 0;
}

StepProfiler::StepProfiler(std::size_t lane_capacity)
    : lane_capacity_(lane_capacity), epoch_(Clock::now()) {}

void StepProfiler::ensure_lanes(std::size_t lanes) {
  while (lanes_.size() < lanes) lanes_.emplace_back(lane_capacity_);
}

void StepProfiler::reset() {
  for (SpanLane& lane : lanes_) lane.clear();
  steps_ = 0;
}

PhaseTotals StepProfiler::phase(StepPhase p) const {
  PhaseTotals sum;
  for (const SpanLane& lane : lanes_) {
    const PhaseTotals& t = lane.totals(p);
    sum.nanos += t.nanos;
    sum.cpu_nanos += t.cpu_nanos;
    sum.items += t.items;
  }
  return sum;
}

std::uint64_t StepProfiler::total_nanos() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kStepPhaseCount; ++i) {
    total += phase(static_cast<StepPhase>(i)).nanos;
  }
  return total;
}

std::uint64_t StepProfiler::total_cpu_nanos() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kStepPhaseCount; ++i) {
    total += phase(static_cast<StepPhase>(i)).cpu_nanos;
  }
  return total;
}

double StepProfiler::steps_per_second() const {
  const std::uint64_t nanos = total_nanos();
  if (steps_ == 0 || nanos == 0) return 0.0;
  return static_cast<double>(steps_) * 1e9 / static_cast<double>(nanos);
}

std::string StepProfiler::json() const {
  obs::JsonWriter json;
  json.begin_object();
  json.field("steps", steps_);
  json.field("total_nanos", total_nanos());
  json.field("steps_per_second", steps_per_second());
  json.begin_array("phases");
  for (std::size_t i = 0; i < kStepPhaseCount; ++i) {
    const PhaseTotals p = phase(static_cast<StepPhase>(i));
    json.begin_object();
    json.field("name", to_string(static_cast<StepPhase>(i)));
    json.field("nanos", p.nanos);
    json.field("cpu_nanos", p.cpu_nanos);
    json.field("items", p.items);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.take();
}

std::size_t StepProfiler::total_spans() const {
  std::size_t total = 0;
  for (const SpanLane& lane : lanes_) total += lane.size();
  return total;
}

std::uint64_t StepProfiler::total_dropped() const {
  std::uint64_t total = 0;
  for (const SpanLane& lane : lanes_) total += lane.dropped();
  return total;
}

std::size_t StepProfiler::write_chrome_trace(std::ostream& os) const {
  std::vector<SpanRecord> all;
  all.reserve(total_spans());
  for (const SpanLane& lane : lanes_) {
    const std::vector<SpanRecord> spans = lane.spans();
    all.insert(all.end(), spans.begin(), spans.end());
  }
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.t_start_nanos != b.t_start_nanos) {
                return a.t_start_nanos < b.t_start_nanos;
              }
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.step != b.step) return a.step < b.step;
              return a.phase < b.phase;
            });

  const std::string profile = json();
  obs::JsonWriter json;
  json.begin_object();
  json.field("displayTimeUnit", "ms");
  json.begin_object("otherData");
  json.field("tool", "lgg");
  json.field("spans", static_cast<std::uint64_t>(all.size()));
  json.field("dropped", total_dropped());
  json.raw_field("profile", profile);
  json.end_object();
  json.begin_array("traceEvents");
  for (const SpanRecord& span : all) {
    json.begin_object();
    json.field("name", to_string(span.phase));
    json.field("cat", "step");
    json.field("ph", "X");
    json.field("ts", static_cast<double>(span.t_start_nanos) / 1000.0);
    json.field("dur", static_cast<double>(span.dur_nanos) / 1000.0);
    json.field("pid", std::int64_t{1});
    json.field("tid", static_cast<std::int64_t>(span.tid));
    json.begin_object("args");
    json.field("step", span.step);
    if (span.shard != kSerialShard) {
      json.field("shard", static_cast<std::int64_t>(span.shard));
    }
    json.end_object();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  const std::string& text = json.str();
  os.write(text.data(), static_cast<std::streamsize>(text.size()));
  os.put('\n');
  return all.size();
}

}  // namespace lgg::core
