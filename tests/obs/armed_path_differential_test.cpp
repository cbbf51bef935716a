// Differential tests of the armed-telemetry hot path against verbatim
// copies of the code it replaced:
//
//   * SpaceSaving (dense index + min-heap) against the hash-map sketch
//     with an O(K) minimum scan — compared by save_state bytes, which
//     hold every entry in slot order, after every update;
//   * Histogram buckets read off the double's bits against ilogb/ldexp;
//   * the hotspot tracker's occupancy feed against one Histogram::observe
//     per value;
//   * FlightRecorder::record_batch against one record call per event;
//   * DriftAttributor::for_each_touched against a sorted touched list,
//     and TouchedSet's staged marks against direct ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/binio.hpp"
#include "common/require.hpp"
#include "obs/drift.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/hotspots.hpp"
#include "obs/registry.hpp"
#include "obs/touched_set.hpp"

namespace lgg {
namespace {

// ---------------------------------------------------------------------------
// Reference copies of the replaced code.

class LegacySpaceSaving {
 public:
  using Entry = obs::SpaceSaving::Entry;

  explicit LegacySpaceSaving(std::size_t k) : k_(k) {
    entries_.reserve(k);
    index_.reserve(k * 2);
  }

  void update(std::uint64_t key, std::uint64_t weight) {
    total_ += weight;
    const auto it = index_.find(key);
    if (it != index_.end()) {
      entries_[it->second].weight += weight;
      return;
    }
    if (entries_.size() < k_) {
      index_.emplace(key, entries_.size());
      entries_.push_back({key, weight, 0});
      return;
    }
    std::size_t victim = 0;
    for (std::size_t i = 1; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      const Entry& best = entries_[victim];
      if (e.weight < best.weight ||
          (e.weight == best.weight && e.key < best.key)) {
        victim = i;
      }
    }
    Entry& slot = entries_[victim];
    index_.erase(slot.key);
    index_.emplace(key, victim);
    slot.error = slot.weight;
    slot.weight += weight;
    slot.key = key;
  }

  void save_state(std::ostream& os) const {
    binio::write_u64(os, static_cast<std::uint64_t>(k_));
    binio::write_u64(os, total_);
    binio::write_u64(os, static_cast<std::uint64_t>(entries_.size()));
    for (const Entry& e : entries_) {
      binio::write_u64(os, e.key);
      binio::write_u64(os, e.weight);
      binio::write_u64(os, e.error);
    }
  }

 private:
  std::size_t k_;
  std::uint64_t total_ = 0;
  std::vector<Entry> entries_;
  std::unordered_map<std::uint64_t, std::size_t> index_;
};

std::size_t legacy_bucket(double value) {
  std::size_t bucket = 0;
  if (value > 0.0) {
    const int exp = std::ilogb(value);
    const double floor_pow = std::ldexp(1.0, exp);
    const int ceil_log2 = value > floor_pow ? exp + 1 : exp;
    const long clamped = std::max(1L, static_cast<long>(ceil_log2) + 1);
    bucket = std::min<std::size_t>(static_cast<std::size_t>(clamped),
                                   obs::Histogram::kBuckets - 1);
  }
  return bucket;
}

// ---------------------------------------------------------------------------
// SpaceSaving

template <typename Sketch>
std::string state_of(const Sketch& sketch) {
  std::ostringstream os(std::ios::binary);
  sketch.save_state(os);
  return os.str();
}

/// Feeds `updates` random (key, weight) pairs to both sketches and
/// compares their full state after every update.  Small weight and key
/// ranges force ties on weight, so the key tie-break decides victims.
void expect_same_stream(obs::SpaceSaving& fast, LegacySpaceSaving& legacy,
                        std::uint64_t key_range, std::uint64_t max_weight,
                        int updates, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::uint64_t> key(0, key_range - 1);
  std::uniform_int_distribution<std::uint64_t> weight(1, max_weight);
  for (int i = 0; i < updates; ++i) {
    const std::uint64_t k = key(rng);
    const std::uint64_t w = weight(rng);
    fast.update(k, w);
    legacy.update(k, w);
    ASSERT_EQ(state_of(fast), state_of(legacy))
        << "update " << i << " (key " << k << ", weight " << w << ")";
  }
}

TEST(SpaceSavingDifferential, HeavyTiesMatchTheMinimumScan) {
  for (const std::size_t k : {2u, 3u, 8u, 20u}) {
    for (const std::uint64_t max_weight : {1u, 2u, 5u}) {
      SCOPED_TRACE("k " + std::to_string(k) + " max weight " +
                   std::to_string(max_weight));
      obs::SpaceSaving fast(k, 4 * k);
      LegacySpaceSaving legacy(k);
      expect_same_stream(fast, legacy, 4 * k, max_weight, 3000,
                         k * 131 + max_weight);
    }
  }
}

TEST(SpaceSavingDifferential, SingleCounter) {
  obs::SpaceSaving fast(1, 16);
  LegacySpaceSaving legacy(1);
  expect_same_stream(fast, legacy, 16, 3, 2000, 11);
}

TEST(SpaceSavingDifferential, MoreCountersThanKeys) {
  obs::SpaceSaving fast(64, 20);
  LegacySpaceSaving legacy(64);
  expect_same_stream(fast, legacy, 20, 4, 2000, 12);
}

TEST(SpaceSavingDifferential, LoadStateRebuildsTheHeap) {
  // The legacy sketch runs uninterrupted; the fast one is rebuilt from a
  // mid-stream blob into a sketch that held other keys, then must keep
  // choosing the same victims.
  constexpr std::size_t kK = 6;
  constexpr std::uint64_t kKeys = 40;
  LegacySpaceSaving legacy(kK);
  obs::SpaceSaving donor(kK, kKeys);
  expect_same_stream(donor, legacy, kKeys, 3, 500, 21);

  obs::SpaceSaving restored(kK, kKeys);
  for (std::uint64_t key = 0; key < kKeys; ++key) restored.update(key, 100);
  std::istringstream blob(state_of(legacy), std::ios::binary);
  restored.load_state(blob);
  ASSERT_EQ(state_of(restored), state_of(legacy));
  expect_same_stream(restored, legacy, kKeys, 3, 1500, 22);
}

TEST(SpaceSavingDifferential, LoadStateRejectsDuplicateKeys) {
  obs::SpaceSaving sketch(3, 10);
  sketch.update(4, 7);
  std::ostringstream os(std::ios::binary);
  binio::write_u64(os, 3);   // k
  binio::write_u64(os, 9);   // total
  binio::write_u64(os, 2);   // entries
  for (int i = 0; i < 2; ++i) {
    binio::write_u64(os, 5);  // the same key twice
    binio::write_u64(os, 4);
    binio::write_u64(os, 0);
  }
  const std::string before = state_of(sketch);
  std::istringstream is(os.str(), std::ios::binary);
  EXPECT_THROW(sketch.load_state(is), std::runtime_error);
  EXPECT_EQ(state_of(sketch), before);  // left unchanged
}

TEST(SpaceSavingDifferential, LoadStateRejectsKeysOutsideTheKeyRange) {
  obs::SpaceSaving sketch(3, 10);
  std::ostringstream os(std::ios::binary);
  binio::write_u64(os, 3);
  binio::write_u64(os, 1);
  binio::write_u64(os, 1);
  binio::write_u64(os, 10);  // == key_count
  binio::write_u64(os, 1);
  binio::write_u64(os, 0);
  std::istringstream is(os.str(), std::ios::binary);
  EXPECT_THROW(sketch.load_state(is), std::runtime_error);
}

TEST(SpaceSavingDifferential, UpdateRejectsKeysOutsideTheKeyRange) {
  obs::SpaceSaving sketch(2, 5);
  EXPECT_THROW(sketch.update(5, 1), ContractViolation);
  obs::SpaceSaving unbound(2);
  EXPECT_THROW(unbound.update(0, 1), ContractViolation);
}

TEST(SpaceSavingDifferential, BindKeepsMonitoredEntries) {
  obs::SpaceSaving sketch(2, 8);
  sketch.update(3, 5);
  sketch.update(7, 2);
  const std::string before = state_of(sketch);
  sketch.bind(100);
  EXPECT_EQ(state_of(sketch), before);
  sketch.update(50, 1);  // evicts key 7 (weight 2)
  EXPECT_EQ(sketch.top()[1].key, 50u);
  EXPECT_THROW(sketch.bind(50), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Histogram buckets

std::size_t fast_bucket(double value) {
  obs::Histogram h;
  h.observe(value);
  for (std::size_t i = 0; i < obs::Histogram::kBuckets; ++i) {
    if (h.bucket(i) == 1) return i;
  }
  return obs::Histogram::kBuckets;  // no bucket counted the sample
}

TEST(HistogramDifferential, SpecialDoubles) {
  std::vector<double> values = {
      0.0,
      -0.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::nextafter(std::numeric_limits<double>::min(), 0.0),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::epsilon(),
      -1.0,
      -std::numeric_limits<double>::denorm_min()};
  for (int e = -1074; e <= 1023; ++e) {
    const double p = std::ldexp(1.0, e);
    values.push_back(p);
    values.push_back(std::nextafter(p, 0.0));
    values.push_back(std::nextafter(p, 2.0 * p));
    values.push_back(-p);
  }
  for (const double v : values) {
    EXPECT_EQ(fast_bucket(v), legacy_bucket(v))
        << "value " << v << " bits " << std::bit_cast<std::uint64_t>(v);
  }
}

TEST(HistogramDifferential, RandomBitPatterns) {
  std::mt19937_64 rng(0xB17);
  for (int i = 0; i < 200000; ++i) {
    const auto v = std::bit_cast<double>(rng());
    ASSERT_EQ(fast_bucket(v), legacy_bucket(v))
        << "bits " << std::bit_cast<std::uint64_t>(v);
  }
  // Queue lengths and ΔP values: the samples the histograms really see.
  for (std::int64_t q = -5; q < 70000; ++q) {
    const auto v = static_cast<double>(q);
    ASSERT_EQ(fast_bucket(v), legacy_bucket(v)) << "value " << q;
  }
}

/// One step of the hotspot tracker's occupancy feed: node i of the step
/// has queue queues[i].
void feed_step(obs::HotspotTracker& tracker,
               const std::vector<PacketCount>& queues) {
  obs::HotspotTracker::Feed feed = tracker.feed();
  for (std::size_t i = 0; i < queues.size(); ++i) {
    feed.observe(static_cast<NodeId>(i), 0, queues[i]);
  }
  feed.finish();
}

std::uint64_t bits_of(double value) {
  return std::bit_cast<std::uint64_t>(value);
}

TEST(HistogramDifferential, BatchedOccupancyFeedMatchesPerValueObserve) {
  // The tracker feeds "sim.queue_occupancy" a step at a time; a reference
  // histogram gets one observe per value.  Above 2^53 a queue length no
  // longer converts to a double exactly and the running sum rounds on
  // every add, so any change to the order of the double operations shows
  // in the sum's bits.
  constexpr PacketCount k53 = PacketCount{1} << 53;
  constexpr PacketCount k62 = PacketCount{1} << 62;
  std::mt19937_64 rng(0x0CC);
  std::vector<PacketCount> mixed;
  for (int i = 0; i < 300; ++i) {
    const std::uint64_t r = rng();
    mixed.push_back(r % 3 == 0   ? static_cast<PacketCount>(r % 50)
                    : r % 3 == 1 ? k53 + static_cast<PacketCount>(r % 4097)
                                 : static_cast<PacketCount>(r >> 2));
  }
  const std::vector<std::vector<std::vector<PacketCount>>> runs = {
      // The first observation is a zero, then the zero bucket refills.
      {{0}, {5, 0, 1, 3}, {}, {k53 + 1, 7, k62 + 12345, 0, k53 - 1, 2}, mixed},
      // The first observation is huge, so min and max start above 2^53.
      {{k62 + 3, k53 + 1, k53 + 1, 1}, mixed, {0, 0}, mixed}};
  for (std::size_t run = 0; run < runs.size(); ++run) {
    SCOPED_TRACE("run " + std::to_string(run));
    obs::MetricRegistry registry;
    obs::HotspotTracker tracker(2, registry);
    tracker.bind(400);
    const obs::Histogram& fed = registry.histogram("sim.queue_occupancy");
    obs::Histogram reference;
    for (std::size_t step = 0; step < runs[run].size(); ++step) {
      feed_step(tracker, runs[run][step]);
      for (const PacketCount q : runs[run][step]) {
        reference.observe(static_cast<double>(q));
      }
      ASSERT_EQ(fed.count(), reference.count()) << "step " << step;
      ASSERT_EQ(bits_of(fed.sum()), bits_of(reference.sum())) << "step " << step;
      ASSERT_EQ(bits_of(fed.min()), bits_of(reference.min())) << "step " << step;
      ASSERT_EQ(bits_of(fed.max()), bits_of(reference.max())) << "step " << step;
      for (std::size_t b = 0; b < obs::Histogram::kBuckets; ++b) {
        ASSERT_EQ(fed.bucket(b), reference.bucket(b))
            << "step " << step << " bucket " << b;
      }
      tracker.close_window();
    }
  }
}

// ---------------------------------------------------------------------------
// FlightRecorder::record_batch

obs::FlightEvent event_at(std::size_t batch, std::size_t i) {
  return {static_cast<TimeStep>(batch), obs::EventKind::kSend,
          static_cast<NodeId>(i), static_cast<NodeId>(i + 1),
          static_cast<std::int64_t>(batch * 1000 + i)};
}

void expect_same_recorder(const obs::FlightRecorder& fast,
                          const obs::FlightRecorder& reference) {
  EXPECT_EQ(fast.size(), reference.size());
  EXPECT_EQ(fast.recorded(), reference.recorded());
  EXPECT_EQ(fast.events(), reference.events());
  std::ostringstream a;
  std::ostringstream b;
  fast.dump(a);
  reference.dump(b);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_EQ(state_of(fast), state_of(reference));
}

TEST(FlightRecorderDifferential, BatchMatchesSequentialRecords) {
  for (const std::size_t capacity : {0u, 1u, 5u, 8u, 64u}) {
    // Batch sizes below, at and above the capacity, starting from an
    // empty ring, a partly filled one and a wrapped one.
    for (const std::vector<std::size_t> batches :
         {std::vector<std::size_t>{3}, {8}, {13}, {0, 2, 0}, {3, 3, 3},
          {5, 8, 1, 40, 2}, {100}, {1, 64, 7, 65}}) {
      SCOPED_TRACE("capacity " + std::to_string(capacity));
      obs::FlightRecorder fast(capacity);
      obs::FlightRecorder reference(capacity);
      for (std::size_t b = 0; b < batches.size(); ++b) {
        std::size_t made = 0;
        fast.record_batch(batches[b], [&](std::size_t i) {
          ++made;
          return event_at(b, i);
        });
        for (std::size_t i = 0; i < batches[b]; ++i) {
          reference.record(event_at(b, i));
        }
        // Only the events that survive in the ring are built.
        EXPECT_EQ(made, std::min(batches[b], capacity));
        expect_same_recorder(fast, reference);
      }
      // Single records after batches land in the same logical slots.
      fast.record(event_at(99, 0));
      reference.record(event_at(99, 0));
      expect_same_recorder(fast, reference);
    }
  }
}

TEST(FlightRecorderDifferential, BatchAfterLoadState) {
  obs::FlightRecorder reference(6);
  for (std::size_t i = 0; i < 9; ++i) reference.record(event_at(0, i));
  obs::FlightRecorder fast(6);
  std::istringstream blob(state_of(reference), std::ios::binary);
  fast.load_state(blob);
  fast.record_batch(4, [](std::size_t i) { return event_at(1, i); });
  for (std::size_t i = 0; i < 4; ++i) reference.record(event_at(1, i));
  expect_same_recorder(fast, reference);
}

// ---------------------------------------------------------------------------
// DriftAttributor::for_each_touched

std::vector<NodeId> touched_of(const obs::DriftAttributor& drift) {
  std::vector<NodeId> out;
  drift.for_each_touched([&out](NodeId v) { out.push_back(v); });
  return out;
}

TEST(DriftTouchedDifferential, AscendingAndExact) {
  for (const NodeId n : {1, 63, 64, 65, 4095, 4096, 4097, 8193}) {
    SCOPED_TRACE("n " + std::to_string(n));
    obs::DriftAttributor drift;
    drift.bind(n);
    std::mt19937_64 rng(static_cast<std::uint64_t>(n));
    std::uniform_int_distribution<NodeId> node(0, n - 1);
    for (int step = 0; step < 6; ++step) {
      drift.begin_step();
      EXPECT_TRUE(touched_of(drift).empty());
      std::set<NodeId> expected;
      // Step 0 touches every node, later steps a random sparse subset
      // plus both ends of the id range.
      const int draws = step == 0 ? 0 : 1 + step * n / 7;
      if (step == 0) {
        for (NodeId v = n - 1; v >= 0; --v) expected.insert(v);
      } else {
        for (int i = 0; i < draws; ++i) expected.insert(node(rng));
        expected.insert(0);
        expected.insert(n - 1);
      }
      for (auto it = expected.rbegin(); it != expected.rend(); ++it) {
        drift.record(*it, obs::DriftCause::kForwarding, 1);
        drift.record(*it, obs::DriftCause::kInjection, 0);
      }
      const std::vector<NodeId> want(expected.begin(), expected.end());
      ASSERT_EQ(touched_of(drift), want) << "step " << step;
      for (const NodeId v : want) ASSERT_EQ(drift.node_drift(v), 1);
    }
    // begin_step clears the per-node contributions it visits.
    drift.begin_step();
    for (NodeId v = 0; v < n; ++v) ASSERT_EQ(drift.node_drift(v), 0);
  }
}

std::vector<NodeId> members_of(const obs::TouchedSet& set) {
  std::vector<NodeId> out;
  set.for_each([&out](NodeId v) { out.push_back(v); });
  return out;
}

TEST(DriftTouchedDifferential, StagedMarksMatchDirectMarks) {
  // stage + gather against mark: the same ids, in any order, give the same
  // set, with direct marks mixed in and sets reused across clears.
  for (const std::size_t n : {1u, 63u, 64u, 65u, 1000u, 4097u, 9000u}) {
    SCOPED_TRACE("n " + std::to_string(n));
    obs::TouchedSet staged;
    obs::TouchedSet direct;
    staged.bind(n);
    direct.bind(n);
    std::mt19937_64 rng(n);
    std::uniform_int_distribution<std::size_t> id(0, n - 1);
    // A staged mark joins the set at gather, not before.
    staged.stage(n - 1);
    EXPECT_FALSE(staged.contains(n - 1));
    staged.gather();
    EXPECT_TRUE(staged.contains(n - 1));
    for (int round = 0; round < 8; ++round) {
      staged.clear();
      direct.clear();
      const std::size_t draws = round == 0 ? n : 1 + round * n / 9;
      for (std::size_t k = 0; k < draws; ++k) {
        const std::size_t i = round == 0 ? k : id(rng);
        if (k % 5 == 0) {
          staged.mark(i);
        } else {
          staged.stage(i);
        }
        direct.mark(i);
      }
      staged.gather();
      ASSERT_EQ(members_of(staged), members_of(direct)) << "round " << round;
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(staged.contains(i), direct.contains(i)) << i;
      }
      staged.gather();  // nothing left staged: a no-op
      ASSERT_EQ(members_of(staged), members_of(direct)) << "round " << round;
    }
  }
}

}  // namespace
}  // namespace lgg
