// Space-Saving sketch contracts (Metwally et al.): the per-entry error
// bound against exact counts on adversarial streams, the guaranteed
// presence of every true heavy hitter, deterministic reports, and
// checkpoint round-trips; plus the HotspotTracker feeding/emission rules.
#include "obs/hotspots.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/registry.hpp"

namespace lgg {
namespace {

using Stream = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

/// Key range of every sketch below (keys are node ids in production).
constexpr std::size_t kKeyCount = 2001;

/// Replays `stream` into a fresh sketch of `k` counters and checks the
/// Space-Saving guarantees against the exact weights:
///   (a) every reported weight over-estimates: true <= w;
///   (b) the error bound is honest: w - err <= true;
///   (c) every key with true weight > total / k is monitored.
void expect_sketch_sound(const Stream& stream, std::size_t k) {
  obs::SpaceSaving sketch(k, kKeyCount);
  std::map<std::uint64_t, std::uint64_t> exact;
  std::uint64_t total = 0;
  for (const auto& [key, weight] : stream) {
    sketch.update(key, weight);
    exact[key] += weight;
    total += weight;
  }
  EXPECT_EQ(sketch.total_weight(), total);

  const std::vector<obs::SpaceSaving::Entry> top = sketch.top();
  ASSERT_LE(top.size(), k);
  std::vector<std::uint64_t> monitored;
  for (const obs::SpaceSaving::Entry& e : top) {
    monitored.push_back(e.key);
    const std::uint64_t truth = exact.at(e.key);
    EXPECT_LE(truth, e.weight) << "key " << e.key;
    EXPECT_LE(e.weight - e.error, truth) << "key " << e.key;
  }
  for (const auto& [key, truth] : exact) {
    if (truth * k > total) {
      EXPECT_NE(std::find(monitored.begin(), monitored.end(), key),
                monitored.end())
          << "heavy hitter " << key << " (weight " << truth
          << " of " << total << ") evicted";
    }
  }
}

TEST(SpaceSaving, ExactWhenKeysFitInK) {
  obs::SpaceSaving sketch(8, kKeyCount);
  for (std::uint64_t key = 0; key < 8; ++key) {
    sketch.update(key, key + 1);
    sketch.update(key, key + 1);
  }
  const auto top = sketch.top();
  ASSERT_EQ(top.size(), 8u);
  EXPECT_EQ(top.front().key, 7u);
  EXPECT_EQ(top.front().weight, 16u);
  for (const auto& e : top) EXPECT_EQ(e.error, 0u);
}

TEST(SpaceSaving, ZipfStreamSatisfiesTheErrorBound) {
  // Zipf-ish weights over a key space 50x the sketch size: key i appears
  // with weight ~ 1/(i+1), shuffled so arrival order is adversarial to
  // the eviction policy rather than convenient.
  Stream stream;
  for (std::uint64_t key = 0; key < 400; ++key) {
    const std::uint64_t weight = 400 / (key + 1) + 1;
    for (int rep = 0; rep < 3; ++rep) stream.emplace_back(key, weight);
  }
  std::mt19937 shuffle_rng(0xC0FFEE);
  std::shuffle(stream.begin(), stream.end(), shuffle_rng);
  expect_sketch_sound(stream, 8);
}

TEST(SpaceSaving, RotatingHeavyHittersStaysSound) {
  // The heavy hitter changes every epoch while background keys churn —
  // the classic stream that forces constant evictions.
  Stream stream;
  std::mt19937 rng(42);
  std::uniform_int_distribution<std::uint64_t> noise_key(1000, 2000);
  for (std::uint64_t epoch = 0; epoch < 10; ++epoch) {
    for (int i = 0; i < 200; ++i) {
      stream.emplace_back(epoch, 5);         // this epoch's heavy hitter
      stream.emplace_back(noise_key(rng), 1);  // churning background
    }
  }
  expect_sketch_sound(stream, 6);
}

TEST(SpaceSaving, ReportsAreDeterministicAcrossRuns) {
  const auto build = [] {
    obs::SpaceSaving sketch(4, kKeyCount);
    for (std::uint64_t i = 0; i < 1000; ++i) {
      sketch.update(i % 37, (i * 7) % 11 + 1);
    }
    return sketch.top();
  };
  const auto a = build();
  const auto b = build();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].weight, b[i].weight);
    EXPECT_EQ(a[i].error, b[i].error);
  }
}

TEST(SpaceSaving, ReportOrderIsWeightDescThenKeyAsc) {
  obs::SpaceSaving sketch(4, kKeyCount);
  sketch.update(9, 5);
  sketch.update(2, 5);
  sketch.update(7, 10);
  const auto top = sketch.top();
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].key, 7u);
  EXPECT_EQ(top[1].key, 2u);  // ties broken by ascending key
  EXPECT_EQ(top[2].key, 9u);
}

TEST(SpaceSaving, SaveLoadRoundTripsMidStream) {
  obs::SpaceSaving sketch(5, kKeyCount);
  for (std::uint64_t i = 0; i < 500; ++i) sketch.update(i % 23, i % 7 + 1);

  std::stringstream blob(std::ios::in | std::ios::out | std::ios::binary);
  sketch.save_state(blob);
  obs::SpaceSaving twin(5, kKeyCount);
  twin.load_state(blob);

  // The twin must continue the stream identically, not just match now.
  for (std::uint64_t i = 500; i < 800; ++i) {
    sketch.update(i % 23, i % 7 + 1);
    twin.update(i % 23, i % 7 + 1);
  }
  const auto a = sketch.top();
  const auto b = twin.top();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].weight, b[i].weight);
    EXPECT_EQ(a[i].error, b[i].error);
  }
  EXPECT_EQ(sketch.total_weight(), twin.total_weight());
}

TEST(SpaceSaving, LoadRejectsMismatchedK) {
  obs::SpaceSaving sketch(4, kKeyCount);
  sketch.update(1, 1);
  std::stringstream blob(std::ios::in | std::ios::out | std::ios::binary);
  sketch.save_state(blob);
  obs::SpaceSaving wrong(8, kKeyCount);
  EXPECT_THROW(wrong.load_state(blob), std::runtime_error);
}

/// One node's observation as a one-node step of the tracker's feed.
void observe(obs::HotspotTracker& tracker, NodeId v, std::int64_t drift,
             PacketCount queue) {
  obs::HotspotTracker::Feed feed = tracker.feed();
  feed.observe(v, drift, queue);
  feed.finish();
}

TEST(HotspotTracker, OnlyPositiveDriftAndNonEmptyQueuesAccumulate) {
  obs::MetricRegistry registry;
  obs::HotspotTracker tracker(3, registry);
  tracker.bind(16);
  observe(tracker, 0, -5, 0);  // draining node, empty after the step
  observe(tracker, 1, 7, 2);
  observe(tracker, 2, 0, 4);
  // Observations only accumulate in the window; the sketches see them
  // when it closes.
  EXPECT_EQ(tracker.drift_sketch().total_weight(), 0u);
  EXPECT_EQ(tracker.queue_sketch().total_weight(), 0u);
  tracker.close_window();
  EXPECT_EQ(tracker.drift_sketch().total_weight(), 7u);
  EXPECT_EQ(tracker.queue_sketch().total_weight(), 6u);
  // Node 0 contributed nothing to either sketch, so it is not monitored.
  for (const auto& e : tracker.drift_sketch().top()) EXPECT_NE(e.key, 0u);
  for (const auto& e : tracker.queue_sketch().top()) EXPECT_NE(e.key, 0u);
  // Every observation lands in the occupancy histogram, drained or not.
  EXPECT_EQ(registry.histogram("sim.queue_occupancy").count(), 3u);
}

TEST(HotspotTracker, WindowSumsReachTheSketchAsOneUpdatePerNode) {
  // Three steps of one window: node 5 contributes 4 + 6 drift and 1 + 2
  // queue; node 3 only drains.  The sketch gets (5, 10) and (5, 3) once,
  // so with K = 1 nothing is evicted and the weights are exact.
  obs::MetricRegistry registry;
  obs::HotspotTracker tracker(1, registry);
  tracker.bind(8);
  observe(tracker, 5, 4, 1);
  observe(tracker, 3, -2, 0);
  observe(tracker, 5, 6, 2);
  tracker.close_window();
  const auto drift = tracker.drift_sketch().top();
  const auto queue = tracker.queue_sketch().top();
  ASSERT_EQ(drift.size(), 1u);
  ASSERT_EQ(queue.size(), 1u);
  EXPECT_EQ(drift[0].key, 5u);
  EXPECT_EQ(drift[0].weight, 10u);
  EXPECT_EQ(drift[0].error, 0u);
  EXPECT_EQ(queue[0].key, 5u);
  EXPECT_EQ(queue[0].weight, 3u);
  // The window is empty again: closing it twice adds nothing.
  tracker.close_window();
  EXPECT_EQ(tracker.drift_sketch().total_weight(), 10u);
  EXPECT_EQ(tracker.queue_sketch().total_weight(), 3u);
}

TEST(HotspotTracker, SummaryFoldsThePendingWindowIntoACopy) {
  obs::MetricRegistry registry;
  obs::HotspotTracker tracker(2, registry);
  tracker.bind(16);
  observe(tracker, 7, 12, 5);
  const std::string table = tracker.summary_table();
  EXPECT_NE(table.find("total weight 12"), std::string::npos) << table;
  EXPECT_NE(table.find("total weight 5"), std::string::npos) << table;
  // Reading leaves the live sketches and the pending window alone.
  EXPECT_EQ(tracker.drift_sketch().total_weight(), 0u);
  EXPECT_EQ(tracker.summary_table(), table);
  tracker.close_window();
  EXPECT_EQ(tracker.drift_sketch().total_weight(), 12u);
  EXPECT_EQ(tracker.summary_table(), table);
}

TEST(HotspotTracker, PendingWindowRoundTripsAndBadEntriesAreRejected) {
  obs::MetricRegistry registry;
  obs::HotspotTracker tracker(2, registry);
  tracker.bind(16);
  observe(tracker, 1, 3, 2);
  tracker.close_window();
  observe(tracker, 9, 8, 4);
  observe(tracker, 12, 0, 6);
  std::ostringstream saved(std::ios::binary);
  tracker.save_state(saved);

  // The twin is mid-window itself: loading replaces its window.
  obs::MetricRegistry twin_registry;
  obs::HotspotTracker twin(2, twin_registry);
  twin.bind(16);
  observe(twin, 15, 1, 1);
  {
    std::istringstream is(saved.str(), std::ios::binary);
    twin.load_state(is);
  }
  std::ostringstream again(std::ios::binary);
  twin.save_state(again);
  EXPECT_EQ(again.str(), saved.str());
  tracker.close_window();
  twin.close_window();
  EXPECT_EQ(twin.summary_table(), tracker.summary_table());

  // The window leads the blob: count, then (node, drift, queue) triples.
  const auto with_u64 = [&saved](std::size_t at, std::uint64_t value) {
    std::string bytes = saved.str();
    for (int i = 0; i < 8; ++i) {
      bytes[at + i] = static_cast<char>(value >> (8 * i));
    }
    return bytes;
  };
  const std::string bad[] = {
      with_u64(0, 17),       // more entries than nodes
      with_u64(8, 16),       // node 9 -> 16, not below the node count
      with_u64(8 + 24, 9),   // node 12 -> 9, repeats the first node
      with_u64(8 + 24, 3),   // node 12 -> 3, below the first node
  };
  for (const std::string& bytes : bad) {
    std::ostringstream before(std::ios::binary);
    twin.save_state(before);
    std::istringstream is(bytes, std::ios::binary);
    EXPECT_THROW(twin.load_state(is), std::runtime_error);
    std::ostringstream after(std::ios::binary);
    twin.save_state(after);
    EXPECT_EQ(after.str(), before.str());
  }
}

TEST(HotspotTracker, SnapshotLineCarriesTheSchema) {
  obs::MetricRegistry registry;
  obs::HotspotTracker tracker(2, registry);
  tracker.bind(16);
  observe(tracker, 4, 10, 3);
  observe(tracker, 9, 5, 1);
  tracker.close_window();
  obs::JsonWriter json;
  tracker.write_snapshot(json, 17, 170);
  const std::string line = json.str();
  EXPECT_NE(line.find("\"type\":\"hotspots\""), std::string::npos);
  EXPECT_NE(line.find("\"seq\":17"), std::string::npos);
  EXPECT_NE(line.find("\"t\":170"), std::string::npos);
  EXPECT_NE(line.find("\"k\":2"), std::string::npos);
  EXPECT_NE(line.find("\"drift_total\":15"), std::string::npos);
  EXPECT_NE(line.find("\"queue_total\":4"), std::string::npos);
  EXPECT_NE(line.find("\"v\":4,\"w\":10,\"err\":0"), std::string::npos);
}

TEST(HotspotTracker, SummaryTableListsBothSketches) {
  obs::MetricRegistry registry;
  obs::HotspotTracker tracker(2, registry);
  tracker.bind(16);
  observe(tracker, 1, 3, 2);
  const std::string table = tracker.summary_table();
  EXPECT_NE(table.find("top-K positive drift"), std::string::npos);
  EXPECT_NE(table.find("top-K queue occupancy"), std::string::npos);
}

}  // namespace
}  // namespace lgg
