#include "span_trace.hpp"

#include <algorithm>
#include <ostream>
#include <utility>

#include "obs/json.hpp"

namespace lgg::perfbench {

SpanTrace::SpanTrace(std::size_t capacity)
    : capacity_(capacity), owner_(std::this_thread::get_id()) {
  spans_.reserve(capacity);
  tids_.push_back(owner_);
}

std::int32_t SpanTrace::begin(std::string_view name, std::int64_t step) {
  const std::int64_t start = now_ns();
  const auto self = std::this_thread::get_id();
  const std::lock_guard<std::mutex> lock(mu_);
  const bool on_owner = self == owner_;
  std::int32_t parent = -1;
  if (on_owner) {
    if (!stack_.empty()) parent = stack_.back();
  } else if (!stack_.empty()) {
    parent = stack_.front();  // the step span the worker runs under
  }
  std::int32_t handle = -1;
  if (spans_.size() < capacity_) {
    const auto it = std::find(tids_.begin(), tids_.end(), self);
    const auto tid = static_cast<std::uint32_t>(it - tids_.begin());
    if (it == tids_.end()) tids_.push_back(self);
    handle = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{name, step, parent, tid, start, start});
  } else {
    ++dropped_;
  }
  if (on_owner) stack_.push_back(handle);
  return handle;
}

void SpanTrace::end(std::int32_t handle) {
  const std::int64_t stop = now_ns();
  const bool on_owner = std::this_thread::get_id() == owner_;
  const std::lock_guard<std::mutex> lock(mu_);
  if (on_owner && !stack_.empty()) stack_.pop_back();
  if (handle >= 0) spans_[static_cast<std::size_t>(handle)].end_ns = stop;
}

std::map<std::string, std::int64_t> SpanTrace::self_ns_by_layer() const {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::map<std::string, std::int64_t> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = s.start_ns;
    for (const auto& [b, e] : kids) {
      const std::int64_t lo = std::max(b, cursor);
      const std::int64_t hi = std::min(e, s.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    const std::string layer(s.name.substr(0, s.name.find('.')));
    self[layer] += (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

void SpanTrace::write_chrome_trace(std::ostream& os) const {
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  obs::JsonWriter json;
  json.begin_object();
  json.field("displayTimeUnit", "ms");
  json.begin_object("otherData");
  json.field("tool", "lgg_perfbench");
  json.field("spans", static_cast<std::uint64_t>(spans_.size()));
  json.field("dropped", dropped_);
  json.end_object();
  json.begin_array("traceEvents");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    json.begin_object();
    json.field("name", s.name);
    json.field("cat", s.name.substr(0, s.name.find('.')));
    json.field("ph", "X");
    json.field("ts", static_cast<double>(s.start_ns - origin) / 1e3);
    json.field("dur", static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    json.field("pid", std::int64_t{1});
    json.field("tid", static_cast<std::int64_t>(s.tid));
    json.begin_object("args");
    json.field("step", s.step);
    json.field("id", static_cast<std::int64_t>(i));
    json.field("parent", static_cast<std::int64_t>(s.parent));
    json.end_object();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  os << json.str() << '\n';
}

}  // namespace lgg::perfbench
