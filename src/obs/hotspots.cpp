#include "obs/hotspots.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/binio.hpp"
#include "common/require.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"

namespace lgg::obs {

SpaceSaving::SpaceSaving(std::size_t k, std::size_t key_count) : k_(k) {
  LGG_REQUIRE(k >= 1 && k < kNoSlot, "SpaceSaving: 1 <= k < 2^32 - 1");
  entries_.reserve(k);
  heap_.reserve(k);
  heap_pos_.reserve(k);
  slot_of_.assign(key_count, kNoSlot);
}

void SpaceSaving::bind(std::size_t key_count) {
  for (const Entry& e : entries_) {
    if (e.key >= key_count) {
      throw std::runtime_error("SpaceSaving: monitored key " +
                               std::to_string(e.key) + " is not below " +
                               std::to_string(key_count));
    }
  }
  slot_of_.assign(key_count, kNoSlot);
  reindex();
}

void SpaceSaving::update(std::uint64_t key, std::uint64_t weight) {
  LGG_REQUIRE(key < slot_of_.size(), "SpaceSaving: key outside [0, key_count)");
  total_ += weight;
  const std::uint32_t hit = slot_of_[key];
  if (hit != kNoSlot) {
    entries_[hit].weight += weight;
    sift(heap_pos_[hit]);
    return;
  }
  if (entries_.size() < k_) {
    const auto slot = static_cast<std::uint32_t>(entries_.size());
    entries_.push_back({key, weight, 0});
    slot_of_[key] = slot;
    heap_.push_back(slot);
    heap_pos_.push_back(slot);
    sift(slot);
    return;
  }
  // Evict the minimum-(weight, key) entry: the classic Space-Saving
  // replacement, with the key tie-break pinning determinism when several
  // monitored entries share the minimum weight.
  const std::uint32_t victim = heap_[0];
  Entry& slot = entries_[victim];
  slot_of_[slot.key] = kNoSlot;
  slot_of_[key] = victim;
  slot.error = slot.weight;
  slot.weight += weight;
  slot.key = key;
  sift(0);
}

void SpaceSaving::sift(std::size_t pos) {
  // Up first, then down: a new counter rises, a grown one sinks (or,
  // after uint64 wraparound, rises), and the order must stay exact.
  const std::uint32_t slot = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!before(slot, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  const std::size_t size = heap_.size();
  for (;;) {
    std::size_t child = 2 * pos + 1;
    if (child >= size) break;
    if (child + 1 < size && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], slot)) break;
    place(pos, heap_[child]);
    pos = child;
  }
  place(pos, slot);
}

void SpaceSaving::reindex() {
  heap_.clear();
  heap_pos_.clear();
  for (std::uint32_t slot = 0; slot < entries_.size(); ++slot) {
    slot_of_[entries_[slot].key] = slot;
    heap_.push_back(slot);
    heap_pos_.push_back(slot);
    sift(slot);
  }
}

std::vector<SpaceSaving::Entry> SpaceSaving::top() const {
  std::vector<Entry> out = entries_;
  std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
    if (a.weight != b.weight) return a.weight > b.weight;
    return a.key < b.key;
  });
  return out;
}

void SpaceSaving::clear() {
  total_ = 0;
  for (const Entry& e : entries_) slot_of_[e.key] = kNoSlot;
  entries_.clear();
  heap_.clear();
  heap_pos_.clear();
}

void SpaceSaving::save_state(std::ostream& os) const {
  binio::write_u64(os, static_cast<std::uint64_t>(k_));
  binio::write_u64(os, total_);
  binio::write_u64(os, static_cast<std::uint64_t>(entries_.size()));
  for (const Entry& e : entries_) {
    binio::write_u64(os, e.key);
    binio::write_u64(os, e.weight);
    binio::write_u64(os, e.error);
  }
}

void SpaceSaving::load_state(std::istream& is) {
  const std::uint64_t k = binio::read_u64(is);
  if (k != k_) {
    throw std::runtime_error(
        "SpaceSaving: checkpoint k does not match this sketch");
  }
  const std::uint64_t total = binio::read_u64(is);
  const std::uint64_t size = binio::read_u64(is);
  if (size > k_) {
    throw std::runtime_error("SpaceSaving: corrupt checkpoint entry count");
  }
  std::vector<Entry> entries(static_cast<std::size_t>(size));
  for (Entry& e : entries) {
    e.key = binio::read_u64(is);
    e.weight = binio::read_u64(is);
    e.error = binio::read_u64(is);
    if (e.key >= slot_of_.size()) {
      throw std::runtime_error("SpaceSaving: corrupt checkpoint key " +
                               std::to_string(e.key) + " (not below " +
                               std::to_string(slot_of_.size()) + ")");
    }
  }
  std::vector<std::uint64_t> keys(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) keys[i] = entries[i].key;
  std::sort(keys.begin(), keys.end());
  const auto twice = std::adjacent_find(keys.begin(), keys.end());
  if (twice != keys.end()) {
    throw std::runtime_error("SpaceSaving: corrupt checkpoint (key " +
                             std::to_string(*twice) + " monitored twice)");
  }
  clear();
  total_ = total;
  entries_ = std::move(entries);
  reindex();
}

HotspotTracker::HotspotTracker(std::size_t k, MetricRegistry& registry)
    : drift_(k),
      queue_(k),
      occupancy_(&registry.histogram("sim.queue_occupancy")) {}

void HotspotTracker::bind(NodeId node_count) {
  LGG_REQUIRE(node_count >= 0, "HotspotTracker: negative node count");
  const auto n = static_cast<std::size_t>(node_count);
  drift_.bind(n);
  queue_.bind(n);
  window_drift_.assign(n, 0);
  window_queue_.assign(n, 0);
  window_.bind(n);
}

void HotspotTracker::fold_window(SpaceSaving& drift, SpaceSaving& queue) const {
  // Ascending id: with a one-step window this is exactly the per-step
  // update order of each sketch.
  window_.for_each([&](NodeId v) {
    const auto i = static_cast<std::size_t>(v);
    if (window_drift_[i] != 0) drift.update(i, window_drift_[i]);
    if (window_queue_[i] != 0) queue.update(i, window_queue_[i]);
  });
}

void HotspotTracker::close_window() {
  fold_window(drift_, queue_);
  window_.for_each([this](NodeId v) {
    const auto i = static_cast<std::size_t>(v);
    window_drift_[i] = 0;
    window_queue_[i] = 0;
  });
  window_.clear();
}

namespace {

void write_entries(JsonWriter& json, std::string_view key,
                   const std::vector<SpaceSaving::Entry>& entries) {
  json.begin_array(key);
  for (const SpaceSaving::Entry& e : entries) {
    json.begin_object();
    json.field("v", static_cast<std::int64_t>(e.key));
    json.field("w", e.weight);
    json.field("err", e.error);
    json.end_object();
  }
  json.end_array();
}

}  // namespace

void HotspotTracker::write_snapshot(JsonWriter& json, std::uint64_t seq,
                                    TimeStep t) const {
  json.begin_object();
  json.field("type", "hotspots");
  json.field("seq", seq);
  json.field("t", static_cast<std::int64_t>(t));
  json.field("k", static_cast<std::uint64_t>(drift_.k()));
  json.field("drift_total", drift_.total_weight());
  json.field("queue_total", queue_.total_weight());
  write_entries(json, "drift", drift_.top());
  write_entries(json, "queue", queue_.top());
  json.end_object();
}

std::string HotspotTracker::summary_table() const {
  std::ostringstream os;
  const auto table = [&os](std::string_view title,
                           const std::vector<SpaceSaving::Entry>& entries,
                           std::uint64_t total) {
    os << title << " (total weight " << total << "):\n";
    if (entries.empty()) {
      os << "  (no contributions recorded)\n";
      return;
    }
    os << "  node          weight           err\n";
    for (const SpaceSaving::Entry& e : entries) {
      char line[96];
      std::snprintf(line, sizeof(line), "  %-8llu %12llu  %12llu\n",
                    static_cast<unsigned long long>(e.key),
                    static_cast<unsigned long long>(e.weight),
                    static_cast<unsigned long long>(e.error));
      os << line;
    }
  };
  SpaceSaving drift = drift_;
  SpaceSaving queue = queue_;
  fold_window(drift, queue);
  table("hotspots: top-K positive drift dP+", drift.top(),
        drift.total_weight());
  table("hotspots: top-K queue occupancy", queue.top(), queue.total_weight());
  return os.str();
}

void HotspotTracker::save_state(std::ostream& os) const {
  std::uint64_t pending = 0;
  window_.for_each([&pending](NodeId) { ++pending; });
  binio::write_u64(os, pending);
  window_.for_each([&](NodeId v) {
    const auto i = static_cast<std::size_t>(v);
    binio::write_u64(os, i);
    binio::write_u64(os, window_drift_[i]);
    binio::write_u64(os, window_queue_[i]);
  });
  drift_.save_state(os);
  queue_.save_state(os);
}

void HotspotTracker::load_state(std::istream& is) {
  struct Pending {
    std::uint64_t node, drift, queue;
  };
  const std::uint64_t n = window_drift_.size();
  const std::uint64_t count = binio::read_u64(is);
  if (count > n) {
    throw std::runtime_error("HotspotTracker: checkpoint window has " +
                             std::to_string(count) + " entries for " +
                             std::to_string(n) + " nodes");
  }
  std::vector<Pending> pending(static_cast<std::size_t>(count));
  for (std::size_t j = 0; j < pending.size(); ++j) {
    Pending& p = pending[j];
    p.node = binio::read_u64(is);
    p.drift = binio::read_u64(is);
    p.queue = binio::read_u64(is);
    if (p.node >= n) {
      throw std::runtime_error("HotspotTracker: checkpoint window node " +
                               std::to_string(p.node) + " is not below " +
                               std::to_string(n));
    }
    if (j > 0 && p.node <= pending[j - 1].node) {
      throw std::runtime_error(
          "HotspotTracker: checkpoint window nodes not strictly ascending");
    }
  }
  SpaceSaving drift = drift_;
  SpaceSaving queue = queue_;
  drift.load_state(is);
  queue.load_state(is);

  drift_ = std::move(drift);
  queue_ = std::move(queue);
  window_drift_.assign(window_drift_.size(), 0);
  window_queue_.assign(window_queue_.size(), 0);
  window_.clear();
  for (const Pending& p : pending) {
    const auto i = static_cast<std::size_t>(p.node);
    window_drift_[i] = p.drift;
    window_queue_[i] = p.queue;
    window_.mark(i);
  }
}

}  // namespace lgg::obs
