#include "obs/drift.hpp"

#include <stdexcept>
#include <string>

#include "common/binio.hpp"
#include "common/require.hpp"
#include "obs/json.hpp"

namespace lgg::obs {

std::string_view to_string(DriftCause cause) {
  switch (cause) {
    case DriftCause::kInjection: return "injection";
    case DriftCause::kForwarding: return "forwarding";
    case DriftCause::kLoss: return "loss";
    case DriftCause::kExtraction: return "extraction";
    case DriftCause::kCrashWiped: return "crash_wiped";
  }
  return "?";
}

void DriftAttributor::bind(NodeId node_count) {
  LGG_REQUIRE(node_count >= 0, "DriftAttributor: negative node count");
  const auto n = static_cast<std::size_t>(node_count);
  node_count_ = node_count;
  per_node_.assign(n * kDriftCauseCount, 0);
  touched_.bind(n);
  recorded_.clear();
  for (auto& c : by_cause_step_) c = 0;
  for (auto& c : by_cause_total_) c = 0;
}

void DriftAttributor::begin_step() {
  // Only record() writes the causes other than forwarding, so only its
  // nodes need their rows zeroed: settle() rewrites every touched node's
  // forwarding row, and the accessors read untouched nodes as zero.
  for (const NodeId v : recorded_) {
    const auto i = static_cast<std::size_t>(v);
    for (std::size_t c = 0; c < kDriftCauseCount; ++c) {
      per_node_[i * kDriftCauseCount + c] = 0;
    }
  }
  recorded_.clear();
  touched_.gather();  // drops what a step that threw before settle() staged
  touched_.clear();
  for (auto& c : by_cause_step_) c = 0;
}

void DriftAttributor::settle(std::span<const PacketCount> queue,
                             std::span<const PacketCount> at_selection) {
  settle(queue, at_selection, [](NodeId, std::int64_t, PacketCount) {});
}

std::int64_t DriftAttributor::step_drift() const {
  std::uint64_t total = 0;
  for (const std::uint64_t c : by_cause_step_) total += c;
  return static_cast<std::int64_t>(total);
}

void DriftAttributor::write_snapshot(JsonWriter& json) const {
  json.begin_object("drift");
  json.field("dP", step_drift());
  json.begin_object("by_cause");
  for (std::size_t c = 0; c < kDriftCauseCount; ++c) {
    json.field(to_string(static_cast<DriftCause>(c)),
               static_cast<std::int64_t>(by_cause_step_[c]));
  }
  json.end_object();
  json.begin_object("cumulative_by_cause");
  for (std::size_t c = 0; c < kDriftCauseCount; ++c) {
    json.field(to_string(static_cast<DriftCause>(c)),
               static_cast<std::int64_t>(by_cause_total_[c]));
  }
  json.end_object();
  // Ascending id order, so the emitted bytes are a pure function of the
  // step, not of phase interleaving.
  json.begin_array("per_node");
  for_each_touched([&](NodeId v) {
    json.begin_object();
    json.field("v", static_cast<std::int64_t>(v));
    json.field("dP", node_drift(v));
    for (std::size_t c = 0; c < kDriftCauseCount; ++c) {
      const auto cause = static_cast<DriftCause>(c);
      const std::int64_t d = node_drift(v, cause);
      if (d != 0) json.field(to_string(cause), d);
    }
    json.end_object();
  });
  json.end_array();
  json.end_object();
}

void DriftAttributor::save_state(std::ostream& os) const {
  binio::write_u32(os, static_cast<std::uint32_t>(kDriftCauseCount));
  for (const std::uint64_t c : by_cause_total_) binio::write_u64(os, c);
}

void DriftAttributor::load_state(std::istream& is) {
  const std::uint32_t causes = binio::read_u32(is);
  if (causes != kDriftCauseCount) {
    throw std::runtime_error("DriftAttributor: checkpoint has " +
                             std::to_string(causes) + " causes, expected " +
                             std::to_string(kDriftCauseCount));
  }
  for (auto& c : by_cause_total_) c = binio::read_u64(is);
}

}  // namespace lgg::obs
